"""Every input file is read through ``data.read_input``, which records the
digest of the bytes parsed; a new loader that opened its file some other way
would leave it out of the run's manifest. This walks the source of
``canopy`` and allows a read of a path only in the places listed below."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "canopy"

# (module, function) -> why it may read a file itself
ALLOWED = {
    ("data", "read_input"): "the one reader of input files",
    ("data", "open_csv"): "the header-only branch, which vote routes each file on",
    ("cli", "_merge_config"): "the config file, which is settings, not data",
    ("cli", "_replace_file"): "the digest of the output it has just written",
}


def _is_read_mode(call: ast.Call) -> bool:
    """Whether an ``open`` call opens for reading: a mode that is absent,
    not a string constant, holds r, or holds none of w, a and x."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return True
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return "r" in mode.value or not set(mode.value) & set("wax")


def _reads_a_path(call: ast.Call) -> bool:
    """Whether a call reads a file by its path; ``os.fdopen`` on a pipe's
    descriptor names no file, so it is no such read."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None)
    if name == "open":  # builtin open, io.open, Path.open
        return _is_read_mode(call)
    if name in ("read_bytes", "read_text"):
        return True
    if name == "load" and isinstance(func, ast.Attribute) and (
            isinstance(func.value, ast.Name) and func.value.id == "np"):
        arg = call.args[0] if call.args else None
        held = (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
                and arg.func.attr == "BytesIO")
        return not held  # np.load over bytes already read is no read
    return False


def read_sites() -> list[tuple[str, str, int]]:
    """(module, innermost enclosing function, line) of each read of a path."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)

        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
                if isinstance(child, ast.Call) and _reads_a_path(child):
                    sites.append((module, function, child.lineno))
                visit(child, inner)

        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sites


def test_inputs_are_read_only_through_read_input():
    sites = read_sites()
    outside = [site for site in sites if site[:2] not in ALLOWED]
    assert not outside, f"files read outside data.read_input: {outside}"
    assert {site[:2] for site in sites} == set(ALLOWED)  # no stale entry


def test_guard_sees_each_kind_of_read():
    """The detector flags each spelling of a read and passes writes and
    reads of held bytes."""
    flagged = {
        'open(p)': True, 'open(p, "rb")': True, 'open(p, mode="r")': True,
        'open(p, "r+b")': True, 'io.open(p, m)': True, 'Path(p).open()': True,
        'p.read_bytes()': True, 'p.read_text(encoding="utf-8")': True, 'np.load(p)': True,
        'open(p, "w")': False, 'open(p, "ab")': False, 'open(p, "w+")': False,
        'np.load(io.BytesIO(raw))': False, 'json.load(fh)': False, 'os.fdopen(r, "rb")': False,
    }
    for source, expected in flagged.items():
        call = ast.parse(source, mode="eval").body
        assert _reads_a_path(call) is expected, source
