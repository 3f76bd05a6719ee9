"""Every input file is read through ``data.read_input``, which records the
digest of the bytes parsed, and every output written through
``data.write_output``, which stages it and records the digest of the bytes
written; a new loader or writer that opened its file some other way would
leave it out of the run's manifest, and a writer could leave a half-written
file. This walks the source of ``canopy`` and allows a read or a write of a
path only in the places listed below."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "canopy"

# (module, function) -> why it may read a file itself
ALLOWED = {
    ("data", "read_input"): "the one reader of input files",
    ("data", "open_csv"): "the header-only branch, which vote routes each file on",
    ("cli", "_merge_config"): "the config file, which is settings, not data",
}
# (module, function) -> why it may write a file itself
ALLOWED_WRITES = {
    ("data", "write_output"): "the one writer of files",
}


def _name(func: ast.expr) -> str | None:
    return func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None)


def _mode(call: ast.Call) -> str | None:
    """An ``open`` call's mode: "r" when absent, None unless a string constant.
    It is the second argument of ``open`` and ``io.open``, the first of the
    method ``Path.open``."""
    func = call.func
    at = 0 if isinstance(func, ast.Attribute) and not (
        isinstance(func.value, ast.Name) and func.value.id == "io") else 1
    mode = call.args[at] if len(call.args) > at else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def _is_read_mode(call: ast.Call) -> bool:
    """Whether an ``open`` call opens for reading: a mode that is not a
    string constant, holds r, or holds none of w, a and x."""
    mode = _mode(call)
    return mode is None or "r" in mode or not set(mode) & set("wax")


def _is_np(func: ast.expr, attr: str) -> bool:
    return (isinstance(func, ast.Attribute) and func.attr == attr
            and isinstance(func.value, ast.Name) and func.value.id == "np")


def _held(call: ast.Call) -> bool:
    """Whether a call's first argument is an in-memory ``BytesIO`` (or an
    assignment expression of one), not a path."""
    arg = call.args[0] if call.args else None
    if isinstance(arg, ast.NamedExpr):
        arg = arg.value
    return isinstance(arg, ast.Call) and _name(arg.func) == "BytesIO"


def _reads_a_path(call: ast.Call) -> bool:
    """Whether a call reads a file by its path; ``os.fdopen`` on a pipe's
    descriptor names no file, so it is no such read."""
    name = _name(call.func)
    if name == "open":  # builtin open, io.open, Path.open
        return _is_read_mode(call)
    if name in ("read_bytes", "read_text"):
        return True
    return _is_np(call.func, "load") and not _held(call)  # over bytes already read: no read


def _writes_a_path(call: ast.Call) -> bool:
    """Whether a call writes a file by its path; ``os.fdopen`` on a pipe's
    descriptor names no file, so it is no such write."""
    name = _name(call.func)
    if name == "open":
        mode = _mode(call)
        return mode is None or bool(set(mode) & set("wax+"))
    if name in ("write_bytes", "write_text"):
        return True
    if name == "dump" and isinstance(call.func, ast.Attribute) and (
            isinstance(call.func.value, ast.Name) and call.func.value.id == "json"):
        return True
    return _is_np(call.func, "save") and not _held(call)  # into memory: no write


def sites(detects) -> list[tuple[str, str, int]]:
    """(module, innermost enclosing function, line) of each call ``detects``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)

        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
                if isinstance(child, ast.Call) and detects(child):
                    found.append((module, function, child.lineno))
                visit(child, inner)

        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_inputs_are_read_only_through_read_input():
    found = sites(_reads_a_path)
    outside = [site for site in found if site[:2] not in ALLOWED]
    assert not outside, f"files read outside data.read_input: {outside}"
    assert {site[:2] for site in found} == set(ALLOWED)  # no stale entry


def test_outputs_are_written_only_through_write_output():
    found = sites(_writes_a_path)
    outside = [site for site in found if site[:2] not in ALLOWED_WRITES]
    assert not outside, f"files written outside data.write_output: {outside}"
    assert {site[:2] for site in found} == set(ALLOWED_WRITES)  # no stale entry


def test_guard_sees_each_kind_of_read():
    """The detectors flag each spelling of a read and of a write, and pass
    the other kind, reads and writes of held bytes, and pipes."""
    reads = {
        'open(p)': True, 'open(p, "rb")': True, 'open(p, mode="r")': True,
        'open(p, "r+b")': True, 'io.open(p, m)': True, 'Path(p).open()': True,
        'Path(p).open("rb")': True, 'p.read_bytes()': True,
        'p.read_text(encoding="utf-8")': True, 'np.load(p)': True,
        'open(p, "w")': False, 'open(p, "ab")': False, 'open(p, "w+")': False,
        'Path(p).open("w")': False, 'np.load(io.BytesIO(raw))': False, 'json.load(fh)': False,
        'os.fdopen(r, "rb")': False,
    }
    writes = {
        'open(p, "w")': True, 'open(p, "wb")': True, 'open(p, mode="ab")': True,
        'open(p, "xb")': True, 'open(p, "r+b")': True, 'io.open(p, m)': True,
        'Path(p).open("w")': True, 'Path(p).open(mode="ab")': True, 'p.write_text(s)': True,
        'p.write_bytes(b)': True, 'np.save(p, a)': True, 'np.save(buf, a)': True,
        'json.dump(doc, fh)': True,
        'open(p)': False, 'open(p, "rb")': False, 'Path(p).open()': False,
        'np.save(io.BytesIO(), a)': False, 'np.save(buf := io.BytesIO(), a)': False,
        'json.dumps(doc)': False, 'os.fdopen(w, "wb")': False, 'fh.write(b)': False,
    }
    for detects, cases in ((_reads_a_path, reads), (_writes_a_path, writes)):
        for source, expected in cases.items():
            call = ast.parse(source, mode="eval").body
            assert detects(call) is expected, (detects.__name__, source)
