"""Source hygiene over the package and the tests, checked with the stdlib ``ast``."""

import ast
import builtins
import re
from pathlib import Path

from smartauth import cli
from smartauth.channel import EVENT_KINDS
from smartauth.scenarios import EXPECTED_VERDICTS, SCENARIOS, SCHEMES, verdict_class

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    """Module-level imports never used as a name, in a string annotation or in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used.update(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is None:
                continue
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.walk(ast.parse(part.value, mode="eval"))
                    used.update(name.id for name in quoted if isinstance(name, ast.Name))
    return sorted(imported - used)


def test_no_unused_imports():
    package, tests = ROOT / "src" / "smartauth", ROOT / "tests"
    paths = sorted(package.glob("*.py")) + sorted(tests.glob("*.py"))
    unused = {str(path.relative_to(ROOT)): _unused_imports(path) for path in paths}
    assert {path: names for path, names in unused.items() if names} == {}


def _scopes(tree: ast.AST) -> dict[ast.AST, str]:
    """Each node's innermost enclosing class or function, as a dotted name ("" at module level)."""
    scopes = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            scopes[child] = inner
            visit(child, inner)

    visit(tree, "")
    return scopes


def test_each_decision_has_one_owner():
    """Only ``protocol`` names a ``hardened`` attribute, ``.hex()`` is called only
    where output is written: ``Event.render``, ``cli._text_report`` and ``Digest.__repr__``,
    only ``runtime._escape_joined`` holds the snapshot's ``\\xhh`` escape literal, the
    identity bytes 0x21..0x7e are written once, as ``runtime.ID_BYTES``, in either spelling,
    ``scenarios`` calls each scheme step once, only ``AdversarialChannel._deliver``
    writes a ``receive`` event, only ``cli.main`` decides what a failed write
    to stdout means: it alone names ``BrokenPipeError`` and calls ``os.dup2``,
    and only ``hashing`` makes a ``Digest`` or checks that a value is one, while
    ``runtime`` imports nothing from ``hashing``."""
    hardened_readers, hex_callers, escapers, id_ranges = set(), set(), set(), []
    write_failure_owners, hashing_importers = set(), set()
    digest_makers, digest_checkers = set(), set()
    steps = ("register", "login", "authenticate", "verify_server", "change_password")
    scheme_calls, receive_writes = [], []
    for path in sorted((ROOT / "src" / "smartauth").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for spelling in ("range(0x21, 0x7f)", "\\x21-\\x7e"):  # in lowercased source
            id_ranges += [path.stem] * text.lower().count(spelling)
        tree = ast.parse(text)
        scopes = _scopes(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "hardened":
                hardened_readers.add(path.stem)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "hex":
                hex_callers.add(f"{path.stem}.{scopes[node]}")
            if isinstance(node, ast.Constant) and node.value == b"\\x%02x":
                escapers.add(f"{path.stem}.{scopes[node]}")
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = ast.unparse(node)
                if name in ("BrokenPipeError", "os.dup2"):
                    write_failure_owners.add((name, f"{path.stem}.{scopes[node]}"))
            if isinstance(node, ast.ImportFrom) and node.module == "hashing":
                hashing_importers.add(path.stem)
            if isinstance(node, ast.Call):
                if ast.unparse(node.func).rpartition(".")[2] == "Digest":
                    digest_makers.add(path.stem)
                checked = ast.unparse(node.args[1]) if ast.unparse(node.func) == "isinstance" else ""
                if re.search(r"\bDigest\b", checked):
                    digest_checkers.add(path.stem)
                if path.stem == "scenarios" and getattr(node.func, "attr", None) in steps:
                    scheme_calls.append(node.func.attr)
                if any(isinstance(arg, ast.Constant) and arg.value == "receive" for arg in node.args):
                    receive_writes.append(f"{path.stem}.{scopes[node]}")
    assert hardened_readers == {"protocol"}
    assert hex_callers == {"channel.Event.render", "cli._text_report", "hashing.Digest.__repr__"}
    assert escapers == {"runtime._escape_joined"}
    assert id_ranges == ["runtime"]
    assert sorted(scheme_calls) == sorted(steps)
    assert receive_writes == ["channel.AdversarialChannel._deliver"]
    assert write_failure_owners == {("BrokenPipeError", "cli.main"), ("os.dup2", "cli.main")}
    assert (digest_makers, digest_checkers) == ({"hashing"}, {"hashing"})
    assert "runtime" not in hashing_importers


def test_readme_code_names_exist():
    """Each backticked code name in the README's prose is a word of the package or a builtin.

    A code name is a Python identifier, possibly dotted, with an ``_`` or a
    capital letter in it; fenced blocks are skipped.
    """
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.DOTALL | re.MULTILINE)
    names = {
        token
        for token in re.findall(r"`([^`\n]+)`", prose)
        if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", token) and re.search(r"[_A-Z]", token)
    }
    words = set(dir(builtins))
    for path in (ROOT / "src" / "smartauth").glob("*.py"):
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    assert names, "no code names found in the README"
    assert sorted(name for name in names if not set(name.split(".")) <= words) == []


def test_readme_scenario_table_matches_expected_verdicts():
    """The README's scenario table lists ``SCENARIOS`` in order, and each cell opens
    with its expected verdict: the class, or ``class:reason``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenarios\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \| ([^|]+) \|$", section, flags=re.MULTILINE)
    assert [scenario for scenario, *_ in rows] == list(SCENARIOS)
    mismatches = []
    for scenario, *cells in rows:
        for scheme, cell in zip(SCHEMES, cells):
            expected = EXPECTED_VERDICTS[(scheme, scenario)]
            verdict = verdict_class(expected)
            want = verdict if expected in (None, verdict) else f"{verdict}:{expected.value}"
            first_word = cell.split()[0]
            if first_word != want:
                mismatches.append((scheme, scenario, first_word, want))
    assert mismatches == []


def test_readme_event_kinds_are_the_channel_event_kinds():
    """The README's ``kind`` list under ``## Transcript format`` is ``EVENT_KINDS``, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Transcript format\n", 1)[1].split("\n## ", 1)[0]
    listed = re.search(r"^`kind` is one of (.*?)\.", section, flags=re.DOTALL | re.MULTILINE)
    assert listed, "no kind list in the README's transcript format"
    assert re.findall(r"`([^`]+)`", listed.group(1)) == list(EVENT_KINDS)


def test_readme_library_block_runs():
    """The ``python`` block under README ``## Library use`` runs with its free names bound."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    secrets = {"master_secret": bytes(range(32)), "shared_secret": bytes(range(32, 64))}
    exec(blocks[0], {**secrets, "thumb": b"thumbprint"})


def test_readme_cost_block_is_the_command_output(capsys):
    """The untagged fenced block under README ``### cost`` is what ``smartauth cost`` prints."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### cost\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE)
    assert cli.main(["cost"]) == 0
    assert [body for language, body in blocks if not language] == [capsys.readouterr().out]
