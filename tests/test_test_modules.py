import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import depspan


def test_no_test_module_defines_a_top_level_name_twice():
    # a second def silently replaces the first, whose test then never runs
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = Counter(node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        assert [n for n, c in names.items() if c > 1] == [], path.name


def test_every_exported_name_is_defined():
    # a half-deleted public name would otherwise only fail at import time of
    # the code that uses it
    for info in pkgutil.iter_modules(depspan.__path__):
        mod = importlib.import_module(f"depspan.{info.name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert missing == [], info.name
    assert [n for n in depspan.__all__ if not hasattr(depspan, n)] == []


def test_only_the_engine_checks_run_hop_rounds_directly():
    # stretch counts in tests go through euclid.stretch_failure_row; only the
    # engine's own cross-check and C12's predecessor walk read its rounds
    allowed = {("test_euclid.py", "_engine_matrix"),
               ("test_acceptance.py", "test_c12_euclidean_filtered_behavior")}
    found = set()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                renamed = (isinstance(node, ast.alias) and node.asname
                           and node.name == "_hop_rounds")
                if renamed or isinstance(node, ast.Call) and "_hop_rounds" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    found.add((path.name, owner))
    assert found <= allowed, sorted(found - allowed)


def _calls(path: Path):
    return [node for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)]


def test_trusted_edge_producers_and_sort_free_reach():
    # the reach engines read edges in the canonical order RankGraph stores;
    # _validated=True skips that check, so every trusted producer lives in
    # graphs.py or euclid.py and is covered by test_graphs' order test
    src = Path(depspan.__file__).parent
    trusted = {path.name for path in sorted(src.glob("*.py"))
               for call in _calls(path)
               if any(kw.arg == "_validated" for kw in call.keywords)}
    assert trusted <= {"graphs.py", "euclid.py"}, sorted(trusted)
    sorts = [call.lineno for call in _calls(src / "reach.py")
             if {getattr(call.func, "id", None), getattr(call.func, "attr", None)}
             & {"argsort", "lexsort"}]
    assert sorts == [], sorts


def _named_calls(path: Path, names):
    """(enclosing top-level def, callee) for each call of a name in names."""
    found = []
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                if callee in names:
                    found.append((getattr(top, "name", None), callee))
    return found


def test_rank_builds_insert_without_a_generic_union():
    # a build is the interval graph, already canonical, plus its few long
    # connectors inserted in place; a sort-and-dedup of all its edges (keys
    # sorted in place, then decoded with //) is the waste this rules out
    src = Path(depspan.__file__).parent
    graphs = src / "graphs.py"
    assert _named_calls(graphs, {"sort"}) == []
    floor_divs = [node.lineno for node in ast.walk(ast.parse(graphs.read_text()))
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)]
    assert floor_divs == [], floor_divs
    sorts = _named_calls(src / "spanners1d.py",
                        {"sort", "argsort", "lexsort", "unique", "graph_union"})
    assert sorts == [("_connectors", "lexsort")], sorts


def test_no_module_fans_out_over_threads_or_processes():
    # on 2 cores a 2-thread trial fan-out ran at 0.76-0.98x the speed of one
    # thread for unbounded and hop-bounded Monte Carlo, and at most 1.09x
    # (inside the run-to-run spread) with sampled sources, so a fan-out
    # comes back only with a benchmark number. The one that did is reach's
    # pool of forked workers for unbounded trials, measured in
    # BENCH_cli-pipeline-jobs.json; it imports multiprocessing inside the
    # function that starts the pool, so importing depspan starts no process
    banned = {"concurrent", "threading", "multiprocessing"}
    src = Path(depspan.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n, node in tree.body) for n in names
                      if n.split(".")[0] in banned]
    assert found == [("reach.py", "multiprocessing", False)], found


def _orphans(sources: dict) -> list:
    """(module, name) of each private top-level def or class in the module
    texts `sources` that no other top-level statement of any of them names,
    as a Name, an Attribute or an imported alias."""
    refs, private = [], []
    for module, text in sources.items():
        for top in ast.parse(text, module).body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            refs.append((top, names))
            name = getattr(top, "name", "")
            if (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and name.startswith("_") and not name.endswith("__")):
                private.append((module, top))
    return [(module, top.name) for module, top in private
            if not any(top.name in names for other, names in refs if other is not top)]


def test_every_private_helper_is_used_in_the_package():
    # a simplification that replaces a helper must delete the old one too;
    # an orphan would live on, still tested, while the package never runs it
    src = Path(depspan.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert _orphans(sources) == []
    sources["lso.py"] += "\n\ndef _helper():\n    return _helper()\n"
    assert _orphans(sources) == [("lso.py", "_helper")]
