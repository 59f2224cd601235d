"""The packaging metadata names only files, modules and packages that exist,
and declares every third-party module the package imports."""

import ast
import builtins
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())
PACKAGE = ROOT / "src" / "cubicfano"


def test_readme_exists():
    assert (ROOT / PYPROJECT["project"]["readme"]).is_file()


def test_script_targets_import():
    for name, target in PYPROJECT["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_package_data_packages_exist():
    package_data = PYPROJECT.get("tool", {}).get("setuptools", {}).get("package-data", {})
    for package in package_data:
        assert (ROOT / "src" / Path(*package.split("."))).is_dir(), package


def top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def declared(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in requirements}


def test_third_party_imports_are_declared():
    imported = {name for path in PACKAGE.rglob("*.py") for name in top_level_imports(path)}
    third_party = imported - set(sys.stdlib_module_names) - {"cubicfano"}
    assert "numpy" in third_party  # the scan sees the imports at all
    assert third_party <= declared(PYPROJECT["project"]["dependencies"])


def test_no_package_module_imports_sympy():
    # the package runs on numpy and the standard library; sympy is a test oracle
    importers = [path.name for path in sorted(PACKAGE.rglob("*.py")) if "sympy" in top_level_imports(path)]
    assert importers == []


def test_third_party_test_imports_are_declared():
    # what the tests import is installed by the package and its test extra
    tests = ROOT / "tests"
    local = {"cubicfano"} | {path.stem for path in tests.glob("*.py")}
    imported = {name for path in tests.rglob("*.py") for name in top_level_imports(path)}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"numpy", "pytest", "sympy"} <= third_party  # the scan sees the imports at all
    project = PYPROJECT["project"]
    assert third_party <= declared(project["dependencies"] + project["optional-dependencies"]["test"])


@pytest.mark.parametrize(
    "module",
    [
        "errors",
        "fano",
        "forms",
        "fourfold",
        "gf",
        "kernels",
        "linalg",
        "pencil",
        "projective",
        "rationality",
        "threefold",
        "torsor",
    ],
)
def test_invariants_survive_optimized_mode(module):
    # `python -O` strips assert statements; these modules raise instead
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def test_no_bare_assertion_error_is_raised():
    # an invariant is an InternalInconsistency, which callers can tell apart
    # from a failing assert and which survives `python -O`
    bare = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


def test_no_compiled_extension_sources():
    # the package is pure Python: no C or Cython source and no build script
    assert not (ROOT / "setup.py").exists()
    leftovers = [p for pattern in ("*.c", "*.pyx", "setup.py") for p in (ROOT / "src").rglob(pattern)]
    assert leftovers == []


def test_build_requirements_are_the_build_backend_only():
    requires = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in PYPROJECT["build-system"]["requires"]}
    assert not requires & {"cython", "numpy"}


def test_no_module_reads_the_environment():
    # behaviour depends on arguments only, never on a switch in the environment
    reads = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                if node.attr in ("environ", "environb", "getenv", "getenvb"):
                    reads.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if {alias.name for alias in node.names} & {"environ", "environb", "getenv", "getenvb"}:
                    reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def _mentions_degree(node) -> bool:
    # an extension degree is read off a field as its attribute k
    return any(isinstance(n, ast.Attribute) and n.attr == "k" for n in ast.walk(node))


def test_only_the_field_layer_climbs_the_tower():
    # extension fields, lifts and the degree bound of the tower live in gf.py
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "gf.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "embedding_into":
                    found.append(f"{path.name}:{node.lineno} embedding_into")
            elif isinstance(node, ast.Compare):
                operands = [node.left] + node.comparators
                if any(isinstance(n, ast.Constant) and n.value == 4 for n in operands) and any(
                    _mentions_degree(n) for n in operands
                ):
                    found.append(f"{path.name}:{node.lineno} degree compared with 4")
    assert found == []


def test_only_the_field_layer_knows_how_a_field_adds_and_multiplies():
    # gf.GF stores its addition and multiplication privately: every other
    # module calls K.add, K.sub and K.mul, reads no private attribute of a
    # field, dense (F_9) or on O(q) tables (F_{7^4}), and subscripts no name
    # or attribute add or mul, as it would a table
    field = importlib.import_module("cubicfano.gf").field
    tables = {name for K in (field(3, 2), field(7, 4)) for name in vars(K) if name.startswith("_")}
    assert {"_dense_add", "_dense_mul", "_log", "_exp", "_spread", "_reduce"} <= tables
    found, calls = [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "gf.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in tables:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.Subscript):
                name = getattr(node.value, "attr", None) or getattr(node.value, "id", None)
                if name in ("add", "mul"):
                    found.append(f"{path.name}:{node.lineno} {name}[...]")
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("add", "sub", "mul"):
                calls += 1
    assert found == []
    assert calls > 50  # the scan sees the arithmetic at all


def test_no_function_imports_inside_its_body():
    # every import sits at the top of its module, where the import graph reads at a glance
    inner = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner += [
                    f"{path.name}:{sub.lineno}"
                    for sub in ast.walk(node)
                    if isinstance(sub, (ast.Import, ast.ImportFrom))
                ]
    assert inner == []


def _traced_names():
    """(module, class or None, attribute) of every entry of the benchmark tracer's TARGETS."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [tuple(ast.literal_eval(field) for field in entry.elts[1:4]) for entry in node.value.elts]
    raise LookupError("perfbench/tracing.py defines no TARGETS")


def test_every_traced_name_resolves():
    # the tracer wraps these names; a rename must fail here, not only in the benchmark's self-check
    names = _traced_names()
    assert names  # the scan sees the table at all
    missing = []
    for module_name, cls_name, attr in names:
        module = importlib.import_module(module_name)
        if cls_name is None:
            ok = callable(getattr(module, attr, None))
        else:
            ok = attr in vars(getattr(module, cls_name, object))
        if not ok:
            missing.append(f"{module_name}.{cls_name + '.' if cls_name else ''}{attr}")
    assert missing == []


def test_the_evaluators_sixth_positional_parameter_is_points():
    # the benchmark tracer counts evaluated points as the sixth positional argument
    tree = ast.parse((PACKAGE / "kernels.py").read_text())
    (func,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "eval_form_batch"]
    positional = [arg.arg for arg in func.args.posonlyargs + func.args.args]
    assert positional[5:6] == ["points"]


def test_one_walk_slices_the_fourfold():
    # a fourfold's slices are built once, in one pass that restricts the
    # plane discriminant to every dual line, and each slice cuts its own
    # threefold when first read; a second call site would be a second walk
    # over the dual plane recomputing them
    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        sites = _call_sites(ast.parse(path.read_text()), {"slice_threefold", "_slices", "on_dual_lines"})
        callers += [f"{path.name}:{scope} {name}" for scope, name in sites]
    assert sorted(callers) == [
        "fourfold.py:NormalizedFourfold.slices _slices",
        "fourfold.py:Slice.threefold slice_threefold",
        "fourfold.py:_slices on_dual_lines",
    ]


def test_every_line_surface_is_built_by_one_path():
    # every surface is a FanoSurface(nf, k), whose fibers and rulings are
    # the threefold's kept pencil, ruled alone or with others' in one pass;
    # a second path would rule fibers another way
    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        sites = _call_sites(ast.parse(path.read_text()), {"FanoSurface", "_rule_pencils", "stacked_pencil_fibers"})
        callers += [f"{path.name}:{scope} {name}" for scope, name in sites]
    assert sorted(callers) == [
        "fano.py:FanoSurface.__init__ _rule_pencils",
        "fano.py:_rule_pencils stacked_pencil_fibers",
        "fano.py:surface_of FanoSurface",
        "fano.py:surfaces_of _rule_pencils",
        "pencil.py:pencil_fibers stacked_pencil_fibers",
    ]


def _call_sites(tree, names, scope=""):
    """(qualified scope, called name) of every call whose function is named in ``names``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in names:
                yield scope, name
        yield from _call_sites(node, names, inner)


def test_a_threefold_computes_its_node_scheme_and_discriminant_in_one_place():
    # every reader goes through the threefold's kept nf.Z and nf.discriminant;
    # a second call site would compute them again
    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        callers += [
            f"{path.name}:{scope} {name}"
            for scope, name in _call_sites(ast.parse(path.read_text()), {"compute_Z", "discriminant"})
        ]
    assert sorted(callers) == [
        "threefold.py:NormalizedThreefold.Z compute_Z",
        "threefold.py:NormalizedThreefold.discriminant discriminant",
    ]


def test_a_threefold_builds_its_pencil_matrix_in_one_place():
    # the threefold's kept nf.pencil_coeffs, the fourfold's plane
    # discriminant and the Gram matrices over Q are the three readers of the
    # one table that places the cubic's monomials in the quadric family;
    # every fiber and the discriminant are read off nf.pencil_coeffs
    builders, fibers = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        builders += [f"{path.name}:{scope}" for scope, _ in _call_sites(tree, {"family_upper"})]
        if path.name != "pencil.py":
            fibers += [f"{path.name}:{scope}" for scope, _ in _call_sites(tree, {"PencilFiber"})]
    assert sorted(builders) == [
        "fourfold.py:plane_discriminant",
        "rationality.py:_pencil_gram",
        "threefold.py:NormalizedThreefold.pencil_coeffs",
    ]
    assert fibers == []


def _divides_off_one_power(node) -> bool:
    """Whether ``node`` is [0] * (... - 1) + [...]: the variable pair of a
    monomial with one power of v (variable 0) divided off."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and isinstance(node.right, ast.ListComp)):
        return False
    zeros = node.left
    return (
        isinstance(zeros, ast.BinOp)
        and isinstance(zeros.op, ast.Mult)
        and isinstance(zeros.left, ast.List)
        and [getattr(e, "value", None) for e in zeros.left.elts] == [0]
        and isinstance(zeros.right, ast.BinOp)
        and isinstance(zeros.right.op, ast.Sub)
        and getattr(zeros.right.right, "value", None) == 1
    )


def test_no_module_but_pencil_defines_a_position_table_for_the_family():
    # where a cubic monomial lands in the quadric family is decided once, in
    # pencil._family_slots: by name, and by the step that divides one power
    # of v off a monomial
    named, dividing = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            if re.search(r"(pencil|family|fiber|entr).*(position|slot)", node.name):
                named.append(f"{path.name}:{node.name}")
            if any(_divides_off_one_power(inner) for inner in ast.walk(node)):
                dividing.append(f"{path.name}:{node.name}")
    assert named == dividing == ["pencil.py:_family_slots"]


def test_binary_forms_are_scanned_and_square_roots_read_in_one_place_each():
    # a quadratic is solved by forms.quadratic_roots, the one reader of the
    # square-root table outside gf.py; only compute_Z's quartic scans a field
    scans, readers = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        scans += [f"{path.name}:{scope}" for scope, _ in _call_sites(tree, {"roots"})]
        if path.name != "gf.py":
            readers += [f"{path.name}:{scope}" for scope in _attribute_reads(tree, "sqrt_table")]
    assert scans == ["threefold.py:compute_Z"]
    assert readers == ["forms.py:quadratic_roots"]


def test_the_chart_of_a_surface_and_of_a_section_is_one_pair_test():
    # the lines missing P, of a whole surface and of a cubic-surface section
    # alike, come from one side solver and one pair test; the transversals
    # of two skew lines are read off the section's lines
    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        sites = _call_sites(ast.parse(path.read_text()), {"_chart_rows", "_quadric_zeros"})
        callers += [f"{path.name}:{scope} {name}" for scope, name in sites]
    assert sorted(callers) == [
        "fano.py:FanoSurface._disjoint_rows _chart_rows",
        "fano.py:_chart_rows _quadric_zeros",
        "fano.py:_section_lines _chart_rows",
    ]


def test_the_line_search_over_q_runs_on_integer_arrays():
    # the points and the pairs of the Q line search are integer array code:
    # one grid evaluator, the monomial matrix, and no Fraction per point or
    # pair; the per-term grid loop is gone from every module
    tree = ast.parse((PACKAGE / "rationality.py").read_text())
    search = {"_points_on_cubic", "_disjoint_lines_from_pairs", "_line_rows_rational", "_primitive_rows"}
    fractions = {scope for scope, _ in _call_sites(tree, {"Fraction"})}
    assert fractions  # the scan sees the Fractions of the module at all
    assert fractions & search == set()
    evaluators = {"_integer_monomials", "_term_arrays", "_form_values", "evaluate", "evaluate_batch",
                  "eval_form_batch", "gradient"}
    calls = sorted({f"{scope} {name}" for scope, name in _call_sites(tree, evaluators) if scope in search})
    assert calls == ["_disjoint_lines_from_pairs _integer_monomials", "_points_on_cubic _integer_monomials"]
    defined = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_term_arrays"
    ]
    assert defined == []


def test_over_q_an_integer_form_is_one_coefficient_vector():
    # the Q code keeps no exponent-dict polynomial layer beside the layout:
    # no _q_ helper, and only the normalization reads the input's terms; any
    # other .items() reads a factorization {prime: exponent}
    tree = ast.parse((PACKAGE / "rationality.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert [func.name for func in functions if func.name.startswith("_q_")] == []
    readers = set()
    for func in functions:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "items":
                receiver = node.func.value
                if not (isinstance(receiver, ast.Call) and getattr(receiver.func, "id", None) == "_factor"):
                    readers.add(func.name)
    assert readers == {"_normalize_rational_cubic"}


def test_quadratic_forms_over_q_are_integer_gram_matrices():
    # a form over Q is an integer Gram matrix, diagonalized fraction-free:
    # no Fraction is built in the form, a pencil member, the local decision or
    # the witness search, and no helper converts entries to Fractions
    tree = ast.parse((PACKAGE / "rationality.py").read_text())
    scopes = {"RationalQuadricForm", "_pencil_member_form", "local_solvability", "_isotropic_vector"}
    found = {node.name for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert scopes <= found and "_python_fraction" not in found
    mentions = [
        f"{node.name}:{sub.lineno}"
        for node in tree.body
        if getattr(node, "name", None) in scopes
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and sub.id == "Fraction"
    ]
    assert mentions == []


def test_generality_over_q_runs_no_finite_field_pipeline():
    # the Q verdict certifies generality from the integer discriminant: it
    # builds no field, subspace or normalized threefold over F_p
    tree = ast.parse((PACKAGE / "rationality.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("cubicfano.")
            imported += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name.removeprefix("cubicfano."), None) for alias in node.names]
    assert ("threefold", "NormalizedThreefold") in imported  # the scan sees the package imports at all
    finite = [
        f"{module}.{name}"
        for module, name in imported
        if module.partition(".")[0] in ("gf", "projective") or (module, name) == ("threefold", "normalize")
    ]
    assert finite == []


def _attribute_reads(tree, attr, scope=""):
    """The qualified scope of every read of an attribute named ``attr``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load):
            yield scope
        yield from _attribute_reads(node, attr, inner)


def test_no_module_imports_a_name_it_never_reads():
    # a module-level import binds a name; one the module never reads is dead weight
    unused, scanned = [], 0
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(ROOT.joinpath("tests").rglob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update({alias.asname or alias.name.partition(".")[0]: node.lineno for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update({alias.asname or alias.name: node.lineno for alias in node.names})
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in bound.items() if name not in read]
        scanned += len(bound)
    assert scanned > 100  # the scan sees the imports at all
    assert unused == []


def test_every_exception_class_is_defined_in_errors():
    # one refusal vocabulary: a class derived from an exception lives in errors.py
    builtin = {name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)}
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert defined  # the scan sees the module at all
    elsewhere = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = {getattr(base, "id", None) or getattr(base, "attr", None) for base in node.bases}
                if bases & (builtin | defined):
                    elsewhere.append(f"{path.name}:{node.name}")
    assert elsewhere == []


def _readme_entry_points():
    """The names in backticks in the README's "Entry points" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Entry points\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))


def test_every_public_name_has_a_caller_or_is_an_entry_point():
    # package code that only the tests call is dead weight; the bench's tracer
    # names its targets in strings, which count as references
    referenced = set()
    for path in sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    entry_points = _readme_entry_points()
    assert "decompose" in entry_points  # the scan sees the section at all
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if node.name not in referenced | entry_points:
                    unused.append(f"{path.name}:{node.name}")
    assert unused == []


def _reads_outside_their_definitions(tree):
    """(name, ids of the enclosing definitions) of every reference in the tree.

    A reference is a name, an attribute, an imported alias or a string
    constant (the bench's tracer names its targets in strings).
    """
    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        elif isinstance(node, ast.alias):
            yield node.name, enclosing
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, enclosing
        for child in ast.iter_child_nodes(node):
            yield from walk(child, enclosing)

    return walk(tree, frozenset())


def test_every_private_name_has_a_reader():
    # a private function or method is read by the package or the bench; a
    # helper that only reads itself (a recursion) or only the tests read is dead
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    trees.update({path: ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").rglob("*.py"))})
    reads: dict = {}
    for tree in trees.values():
        for name, enclosing in _reads_outside_their_definitions(tree):
            reads.setdefault(name, []).append(enclosing)
    private, unread = 0, []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_"):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                private += 1
                if not any(id(node) not in enclosing for enclosing in reads.get(node.name, ())):
                    unread.append(f"{path.name}:{node.lineno} {node.name}")
    assert private > 50  # the scan sees the private helpers at all
    assert unread == []


def _identifiers(tree):
    """Every name the tree binds, reads, passes as a keyword or takes as a parameter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


def test_the_generality_certificate_takes_the_threefold_alone():
    # generality is read off Z and the discriminant, so no scan has a depth to set
    found = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _identifiers(ast.parse(path.read_text()))
        if name == "scan_depth"
    ]
    assert found == []
    tree = ast.parse((PACKAGE / "threefold.py").read_text())
    (func,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "certify_generality"]
    args = func.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
    assert params == ["nf"]


def test_one_module_owns_the_coefficient_layout():
    # a form is one coefficient vector: no second form class, and no module
    # but forms.py reads the term dict or converts between layouts
    classes, reads, vectors = [], [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name == "BinaryForm":
                classes.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and path.name != "forms.py":
                if node.attr in ("terms", "from_form", "to_form"):
                    reads.append(f"{path.name}:{node.lineno} {node.attr}")
                vectors += node.attr == "coeffs"
    assert vectors  # the scan sees the readers of the vector at all
    assert classes == []
    assert reads == []
    # the benchmark's tracer may still name the root scan by the old class name
    forms = importlib.import_module("cubicfano.forms")
    assert getattr(forms, "BinaryForm", forms.HomogeneousForm) is forms.HomogeneousForm
