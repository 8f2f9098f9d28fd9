"""Domain types, generators, and the text round trip."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgtri
from fgtri import (ColoredValuedGraph, IntMatrix, MINUS_INF, PLUS_INF,
                   RngStream, SetFamilyInstance, TripartiteWeightedGraph,
                   ae_mono_triangle_bf, ae_mono_triangle_fast,
                   ae_monoeq_triangle_bf, ae_sparse_triangle_bf,
                   ae_sparse_triangle_fast, balanced_split, generate_colored,
                   generate_matrix, generate_set_family,
                   generate_sparse_tripartite,
                   generate_tripartite, parse, parse_documents, serialize,
                   triangle_weight_sum, zero_triangle_bf)
from fgtri.oracles import _colored_arrays
from fgtri.textio import ParseError


# ------------------------------------------------------------ package import

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads_after_import(**preset):
    """The three BLAS thread counts a fresh ``import fgtri`` leaves, with
    only ``preset`` of them set beforehand."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    env.update(preset, PYTHONPATH=str(Path(fgtri.__file__).parents[1]))
    code = ("import os, fgtri; print(*(os.environ.get(v) for v in "
            f"{_BLAS_THREADS!r}))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_defaults_blas_to_one_thread_and_keeps_a_set_value():
    assert _blas_threads_after_import() == ["1", "1", "1"]
    assert _blas_threads_after_import(OMP_NUM_THREADS="2") == ["1", "2", "1"]


# The package modules each module may import: shared types and helpers
# live in ``instances``, so no solver or reduction reaches into the oracles
# or into another reduction for them. ``cli`` and ``__init__`` are exempt.
_LAYERS = {
    "instances": set(), "rng": set(),
    "generators": {"instances", "rng"},
    "textio": {"instances"}, "oracles": {"instances"},
    "fast_solvers": {"instances"}, "products": {"instances"},
    "setfam": {"instances"},
    "witness_listing": {"instances", "rng", "textio"}, "monoeq": {"instances", "rng"},
    "zero_triangle": {"instances", "oracles", "rng"},
}


def _package_imports(path: Path) -> set:
    """The package modules that a module imports by relative imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module
                         else (alias.name for alias in node.names))
    return found


def test_each_module_imports_only_the_layers_below_it():
    package = Path(fgtri.__file__).parent
    imports = {path.stem: _package_imports(path)
               for path in package.glob("*.py")
               if path.stem not in ("cli", "__init__")}
    assert imports == _LAYERS


def _literal_keys(node) -> set:
    """The constants that a tuple, list or set literal holds, or that key
    a dict literal."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        items = node.elts
    elif isinstance(node, ast.Dict):
        items = node.keys
    else:
        return set()
    return {item.value for item in items if isinstance(item, ast.Constant)}


def test_only_instances_spells_the_weighted_pair_layout():
    """The AB/BC/CA order and the parts each pair joins are said once, in
    ``instances`` (``WEIGHTED_PAIRS``, ``_PAIR_PARTS``); every other module
    loops over them. The oracles are exempt: they stay independent. The
    products' one colour-tag format has no public pairing function."""
    package = Path(fgtri.__file__).parent
    spelled = sorted(
        (path.stem, node.lineno) for path in package.glob("*.py")
        if path.stem not in ("instances", "oracles")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if {"AB", "BC", "CA"} <= _literal_keys(node))
    assert spelled == []
    assert "composite_color" not in fgtri.__all__


def test_only_instances_tests_for_integral():
    """The integer rule (an Integral, not a bool) is said once, in
    ``instances._is_int``; no other module calls ``isinstance(x, Integral)``."""
    package = Path(fgtri.__file__).parent
    callers = [
        path.stem for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and "Integral" in ast.dump(node.args[1])]
    assert callers == ["instances"]


def _names_in(paths) -> set:
    """Every identifier that the modules at paths read, call or import."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_definition_has_a_caller_outside_the_tests():
    """Each public top-level function or class of the package, and each
    public method, is named somewhere besides its own ``def`` or ``class``
    line: in a package module other than ``__init__`` (whose re-exports do
    not count), in ``perfbench/`` or in ``tools/``. Library code that only
    tests call is dead weight."""
    package = Path(fgtri.__file__).parent
    root = package.parents[1]
    modules = [path for path in package.glob("*.py")
               if path.stem != "__init__"]
    named = _names_in(modules + [*root.glob("perfbench/*.py"),
                                 *root.glob("tools/*.py")])
    defined = []
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.stem, f"{node.name}.{item.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)]
    assert len(defined) > 150
    assert [(module, qualified) for module, qualified, name in defined
            if not name.startswith("_") and name not in named] == []


# ------------------------------------------------------------ invariants

_EDGE_FIELDS = {"IJ": "edges_ij", "JK": "edges_jk", "IK": "edges_ik"}


def test_array_built_graphs_equal_their_validated_tuple_graphs():
    """A trusted graph built from arrays derives its edges, row-major, on
    first read, whichever read comes first, and reads colours and values on
    present cells only; until then no colored solver derives them."""
    sides = (frozenset(), frozenset({"IK", "JK"}), frozenset({"IJ", "JK"}),
             frozenset({"IJ", "IK"}), frozenset(_EDGE_FIELDS))
    for seed in range(30):
        sizes = (seed % 4, 1 + seed % 5, 2 + (seed * 3) % 4)
        base = generate_colored(sizes, 1 + seed % 3, 20 + (seed * 11) % 80,
                                5, sides[seed % 5], RngStream(seed))
        pres, col, val = ({p: grid.copy() for p, grid in by_pair.items()}
                          for by_pair in _colored_arrays(base))
        for pair in _EDGE_FIELDS:  # junk off the present cells is ignored
            col[pair][~pres[pair]] = 99
            val[pair][~pres[pair]] = -7
        tuples = ColoredValuedGraph(
            sizes, *(sorted(base.edges(p)) for p in _EDGE_FIELDS),
            base.value_sides)

        def lazy():
            return ColoredValuedGraph._trusted(sizes, base.value_sides,
                                               (pres, col, val))

        for pair, field in _EDGE_FIELDS.items():
            assert lazy().edges(pair) == tuples.edges(pair)
            assert getattr(lazy(), field) == getattr(tuples, field)
            assert all(type(x) is int for e in lazy().edges(pair)
                       for x in e if x is not None)
        assert lazy().edge_count == tuples.edge_count
        assert lazy() == tuples and tuples == lazy()
        assert hash(lazy()) == hash(tuples)
        assert repr(lazy()) == repr(tuples)
        assert serialize(lazy()) == serialize(tuples)
        g = lazy()
        for solver in (ae_mono_triangle_bf, ae_monoeq_triangle_bf,
                       ae_mono_triangle_fast):
            solver(g)
        assert not set(_EDGE_FIELDS.values()) & set(g.__dict__)
        assert g.edges_ik == tuples.edges_ik and "edges_ik" in g.__dict__


def test_twg_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError):
        TripartiteWeightedGraph((1, 1, 1), edges_ab=((0, 1, 5),))


def test_twg_rejects_duplicate_edge():
    with pytest.raises(ValueError):
        TripartiteWeightedGraph((1, 2, 1), edges_ab=((0, 1, 5), (0, 1, 6)))


def test_twg_modulus_bounds_weights():
    with pytest.raises(ValueError):
        TripartiteWeightedGraph((1, 1, 0), edges_ab=((0, 0, 7),),
                                weight_modulus=5)
    g = TripartiteWeightedGraph((1, 1, 0), edges_ab=((0, 0, 4),),
                                weight_modulus=5)
    assert g.weight_modulus == 5


@pytest.mark.parametrize("edge", [(0.5, 1, 3), (0, 1.0, 3), (0, "1", 3),
                                  (None, 1, 3), (0, 1, "7"), (0, 1, None),
                                  (0, 1, 1.5), (True, 0, 5), (0, True, 5),
                                  (0, 0, False)])
def test_twg_rejects_non_integer_endpoints_and_weights(edge):
    # A float endpoint passes a range check, and a solver fails on it later.
    for pair in ("edges_ab", "edges_bc", "edges_ca"):
        for modulus in (None, 5):
            with pytest.raises(ValueError, match="not an integer"):
                TripartiteWeightedGraph((2, 2, 2), **{pair: (edge,)},
                                        weight_modulus=modulus)


@pytest.mark.parametrize("sizes", [(2.0, 2, 2), (2, 2, 0.5), ("2", 2, 2),
                                   (2, None, 2), (2, -1, 2), (2, 2),
                                   (2, True, 1)])
def test_graphs_reject_part_sizes_that_are_not_counts(sizes):
    # A float size passed before: its graph failed later (edge_count raised
    # TypeError, and serialize wrote a size that parse rejects).
    with pytest.raises(ValueError, match="part_sizes"):
        TripartiteWeightedGraph(sizes, ((0, 0, 1),))
    with pytest.raises(ValueError, match="part_sizes"):
        ColoredValuedGraph(sizes)


@pytest.mark.parametrize("modulus", [7.5, 5.0, "5", 0, -3, True])
def test_twg_rejects_a_modulus_that_is_not_a_positive_integer(modulus):
    with pytest.raises(ValueError, match="weight_modulus"):
        TripartiteWeightedGraph((1, 1, 1), ((0, 0, 1),),
                                weight_modulus=modulus)


def test_twg_weights_stay_unbounded_without_a_modulus():
    big = TripartiteWeightedGraph((1, 1, 1), ((0, 0, -10 ** 30),),
                                  ((0, 0, 10 ** 30),), ((0, 0, 0),))
    assert big.max_abs_weight() == 10 ** 30


def test_cvg_rejects_non_integer_endpoints():
    for u, v in ((0.0, 0), (0, 0.5), ("0", 0), (0, None), (True, 0),
                 (0, False)):
        with pytest.raises(ValueError, match="not an integer"):
            ColoredValuedGraph((1, 1, 1), edges_ij=((u, v, 1, None),))


def test_edges_of_an_unknown_pair_raise_key_error():
    twg = TripartiteWeightedGraph((1, 1, 1), edges_ab=((0, 0, 1),))
    cvg = ColoredValuedGraph((1, 1, 1), edges_ij=((0, 0, 1, None),))
    assert twg.edges("AB") == ((0, 0, 1),)
    assert cvg.edges("IJ") == ((0, 0, 1, None),)
    for g, bad in ((twg, ("ab", "IJ", "BA", "")), (cvg, ("ij", "AB", "JI", ""))):
        for pair in bad:
            with pytest.raises(KeyError):
                g.edges(pair)


def test_cvg_value_side_discipline():
    with pytest.raises(ValueError):
        ColoredValuedGraph((1, 1, 1), edges_ij=((0, 0, 1, 5),),
                           value_sides=frozenset())
    with pytest.raises(ValueError):
        ColoredValuedGraph((1, 1, 1), edges_ij=((0, 0, 1, None),),
                           value_sides=frozenset({"IJ"}))
    g = ColoredValuedGraph((1, 1, 1), edges_ij=((0, 0, 1, 5),),
                           value_sides=frozenset({"IJ"}))
    assert g.edges_ij[0][3] == 5


def test_cvg_colors_and_values_fit_in_int64():
    top, bottom = (1 << 63) - 1, -(1 << 63)
    g = ColoredValuedGraph((1, 1, 1), edges_ij=((0, 0, top, bottom),),
                           value_sides=frozenset({"IJ"}))
    pres, col, val = (grids["IJ"] for grids in _colored_arrays(g))
    assert (pres[0, 0], col[0, 0], val[0, 0]) == (True, top, bottom)
    for color, value in ((top + 1, 0), (bottom - 1, 0), (0, top + 1),
                         (0, bottom - 1), (1.5, 0), (0, 2.0), ("1", 0),
                         (None, 0), (0, "5"), (True, 0), (0, False)):
        with pytest.raises(ValueError):
            ColoredValuedGraph((1, 1, 1), edges_ij=((0, 0, color, value),),
                               value_sides=frozenset({"IJ"}))


def test_public_graphs_keep_their_edges_beside_read_only_grids():
    """The validating constructor keeps the given tuples in the given order,
    so edges() and the text bytes follow it, and builds read-only grids
    that hold every edge's colour and value at its cell."""
    sides = (frozenset(), frozenset({"IK", "JK"}), frozenset({"IJ", "JK"}),
             frozenset({"IJ", "IK"}), frozenset(_EDGE_FIELDS))
    for seed in range(15):
        rng = RngStream(seed, ("public-grids",))
        sizes = (1 + seed % 4, 2 + seed % 3, 1 + (seed * 5) % 4)
        base = generate_colored(sizes, 1 + seed % 3, 70, 4, sides[seed % 5],
                                rng.child("g"))
        shuffled = {}
        for pair in _EDGE_FIELDS:
            edges = base.edges(pair)
            order = rng.child("order", pair).permutation(len(edges))
            shuffled[pair] = tuple(edges[i] for i in order)
        g = ColoredValuedGraph(sizes, *shuffled.values(), base.value_sides)
        lines = [serialize(base).splitlines()[0]]
        for pair, edges in shuffled.items():
            assert g.edges(pair) == edges
            lines += [" ".join(map(str, (pair, *(x for x in e if x is not None))))
                      for e in edges]
        assert serialize(g) == "\n".join(lines) + "\n"
        assert parse(serialize(g)) == g
        grids = _colored_arrays(g)
        for pair, edges in shuffled.items():
            pres, col, val = (by_pair[pair] for by_pair in grids)
            assert pres.sum() == len(edges)
            for u, v, c, x in edges:
                assert pres[u, v] and col[u, v] == c
                assert x is None or val[u, v] == x
            for grid in (pres, col, val):
                with pytest.raises(ValueError):
                    grid[0, 0] = grid[0, 0]


def test_matrix_shape_and_sentinel_guard():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix(1, 1, (PLUS_INF + 1,))
    m = IntMatrix(2, 2, (1, PLUS_INF, MINUS_INF, -4))
    assert m.to_rows()[0][1] == PLUS_INF
    assert m.transpose().to_rows()[1][0] == PLUS_INF


@pytest.mark.parametrize("entry", [1.5, "3", None, True])
def test_matrix_rejects_non_integer_entries(entry):
    # A 1.5 would be truncated on the way into the int64 grid.
    with pytest.raises(ValueError, match="is not an integer"):
        IntMatrix(1, 1, (entry,))


def test_sentinel_sums_fit_in_64_bits():
    assert PLUS_INF + PLUS_INF < 2 ** 63
    assert MINUS_INF + MINUS_INF > -(2 ** 63)


def test_set_family_validation():
    with pytest.raises(ValueError):
        SetFamilyInstance(2, ((0, 2),), ())
    with pytest.raises(ValueError):
        SetFamilyInstance(2, ((0,),), ((0, 1),))


@pytest.mark.parametrize("rows,cols", [(1.0, 1), (True, 1), (1, "1"),
                                       (1, None)])
def test_matrix_rejects_counts_that_are_not_counts(rows, cols):
    # A float or bool count failed inside numpy with a TypeError.
    with pytest.raises(ValueError, match="rows and cols"):
        IntMatrix(rows, cols, (5,))


@pytest.mark.parametrize("fields,name", [
    ((2.5, ((0,),), ()), "universe_size"),
    ((True, ((0,),), ()), "universe_size"),
    ((2, ((0.5,),), ()), "element"),
    ((2, ((True,),), ()), "element"),
    ((2, ((0,),), ((0.7, "0"),)), "query"),
    ((2, ((0,),), ((0, 0.0),)), "query"),
    ((2, ((0,),), ((False, 0),)), "query"),
    ((2, ((0,),), (), 1.5), "output_cap"),
    ((2, ((0,),), (), True), "output_cap"),
])
def test_set_family_rejects_fields_that_are_not_integers(fields, name):
    # Each was accepted (a query through int(), so (0.7, "0") read (0, 0)),
    # and its text failed parse.
    with pytest.raises(ValueError, match=name):
        SetFamilyInstance(*fields)


def test_set_family_and_matrix_take_numpy_integers():
    one, zero = np.int64(1), np.int32(0)
    s = SetFamilyInstance(np.int64(2), ((zero, one),), ((zero, zero),), one)
    assert s.queries == ((0, 0),) and type(s.queries[0][0]) is int
    assert parse(serialize(s)) == s
    assert IntMatrix(one, np.int16(2), (zero, 7)).to_rows() == [[0, 7]]


def test_numpy_endpoints_and_weights_are_stored_as_ints():
    # 1 << np.int64(69) wraps in 64 bits: the packed C-rows and the
    # oracles' C-masks lost C-vertex 69, so the bf detector missed the
    # triangle (0, 0, 69) and the fast one raised OverflowError.
    c = np.int64(69)
    g = TripartiteWeightedGraph((1, 1, 70), ((0, 0, np.int32(1)),),
                                ((0, c, 1),), ((c, 0, np.int64(1)),))
    assert ae_sparse_triangle_bf(g) == {(0, 0): True}
    assert ae_sparse_triangle_fast(g) == {(0, 0): True}
    assert all(type(x) is int for pair in ("AB", "BC", "CA")
               for e in g.edges(pair) for x in e)
    assert g == TripartiteWeightedGraph((1, 1, 70), ((0, 0, 1),),
                                        ((0, 69, 1),), ((69, 0, 1),))


def test_numpy_part_sizes_and_modulus_are_stored_as_ints():
    g = TripartiteWeightedGraph((np.int64(1), 1, np.int64(70)), ((0, 0, 1),),
                                ((0, 69, 1),), ((69, 0, 1),), np.int64(5))
    assert ae_sparse_triangle_bf(g) == {(0, 0): True}
    assert ae_sparse_triangle_fast(g) == {(0, 0): True}
    assert [type(x) for x in (*g.part_sizes, g.weight_modulus)] == [int] * 4
    assert parse(serialize(g)) == g
    h = ColoredValuedGraph((np.int64(1), 1, np.int16(2)))
    assert [type(x) for x in h.part_sizes] == [int] * 3


# ------------------------------------------------------------ generators

def test_balanced_split_sums():
    for n in range(30):
        parts = balanced_split(n)
        assert sum(parts) == n and max(parts) - min(parts) <= 1


def test_plant_forces_zero_triangle():
    g, planted = generate_tripartite(3, 1, True, RngStream(5))
    assert g.part_sizes == (1, 1, 1)
    assert planted == (0, 0, 0)
    assert triangle_weight_sum(g, planted) == 0
    assert zero_triangle_bf(g) == (0, 0, 0)


def test_planted_weights_stay_in_bound():
    for seed in range(40):
        g, planted = generate_tripartite(7, 3, True, RngStream(seed))
        assert triangle_weight_sum(g, planted) == 0
        assert g.max_abs_weight() <= 3


def test_empty_graph_allowed():
    g, planted = generate_tripartite(0, 1, False, RngStream(1))
    assert g.part_sizes == (0, 0, 0) and g.edge_count == 0 and planted is None


def test_plant_with_empty_part_rejected():
    with pytest.raises(ValueError):
        generate_tripartite(2, 1, True, RngStream(1))


def test_generator_determinism():
    a, _ = generate_tripartite(9, 5, False, RngStream(42))
    b, _ = generate_tripartite(9, 5, False, RngStream(42))
    assert a == b
    c = generate_colored((3, 3, 3), 2, 50, 4, frozenset({"IK", "JK"}),
                         RngStream(7))
    d = generate_colored((3, 3, 3), 2, 50, 4, frozenset({"IK", "JK"}),
                         RngStream(7))
    assert c == d


# ------------------------------------------------------------ round trips

def test_round_trip_empty_graph():
    g = TripartiteWeightedGraph((0, 0, 0))
    assert parse(serialize(g)) == g


def test_round_trip_single_edge():
    g = TripartiteWeightedGraph((1, 1, 0), edges_ab=((0, 0, -7),))
    text = serialize(g)
    assert "AB 0 0 -7" in text
    assert parse(text) == g


def test_round_trip_comments_ignored():
    g = TripartiteWeightedGraph((1, 1, 1), edges_ab=((0, 0, 3),))
    text = "# header comment\n" + serialize(g).replace(
        "AB 0 0 3", "AB 0 0 3  # planted")
    assert parse(text) == g


@given(st.integers(min_value=0, max_value=12), st.integers())
@settings(max_examples=50, deadline=None)
def test_round_trip_generated_graphs(n, seed):
    g, _ = generate_tripartite(n, 9, False, RngStream(seed))
    assert parse(serialize(g)) == g


@given(st.integers(min_value=1, max_value=6), st.integers(),
       st.sampled_from(["none", "a", "b", "c", "all"]))
@settings(max_examples=50, deadline=None)
def test_round_trip_colored(n, seed, sides_name):
    sides = {"none": frozenset(), "a": frozenset({"IK", "JK"}),
             "b": frozenset({"IJ", "JK"}), "c": frozenset({"IJ", "IK"}),
             "all": frozenset({"IJ", "JK", "IK"})}[sides_name]
    g = generate_colored((n, n, n), 3, 60, 5, sides, RngStream(seed))
    assert parse(serialize(g)) == g


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5),
       st.integers())
@settings(max_examples=50, deadline=None)
def test_round_trip_matrices(rows, cols, seed):
    m = generate_matrix(rows, cols, -50, 50, RngStream(seed),
                        plus_inf_percent=10, minus_inf_percent=10)
    assert parse(serialize(m)) == m


@given(st.integers())
@settings(max_examples=40, deadline=None)
def test_round_trip_set_family(seed):
    s = generate_set_family(12, 5, 6, 8, RngStream(seed), output_cap=3)
    assert parse(serialize(s)) == s


def test_round_trip_modulus_graph():
    g = generate_sparse_tripartite((3, 3, 3), 70, 9, RngStream(4))
    from fgtri import RandomizationData, randomize_weights
    gp = randomize_weights(g, RandomizationData(101, 1, ((0,) * 3,) * 3))
    assert gp.weight_modulus == 101
    assert parse(serialize(gp)) == gp


def test_parse_error_carries_line_number():
    bad = "TWG 1 1 1\nAB 0 zero 3\n"
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.line_no == 2


def test_parse_rejects_unknown_header():
    with pytest.raises(ParseError):
        parse("XYZ 1 2 3\n")


def test_parse_documents_concatenated_matrices():
    a = IntMatrix(1, 2, (1, 2))
    b = IntMatrix(2, 1, (3, 4))
    docs = parse_documents(serialize(a) + serialize(b))
    assert docs == [a, b]


_SFI = "SFI 4 1 0\n"


@pytest.mark.parametrize("text, line_no, message", [
    ("", 0, "empty document"),
    ("# only a comment\n", 0, "empty document"),
    ("IMX 0 0\nIMX 0 0\n", 0, "expected one document, found 2"),
    ("XYZ 1 2 3\n", 1, "unknown document type 'XYZ'"),
    ("TWG 1 1\n", 1, "TWG header needs 3 sizes and optional MOD p"),
    ("TWG 1 1 x\n", 1, "bad part size 'x'"),
    ("TWG 1 1 1\nXY 0 0 1\n", 2, "expected 'AB|BC|CA u v w', got 'XY 0 0 1'"),
    ("TWG 1 1 1\nAB 5 0 1\n", 1,
     "AB edge (5,0) is not an integer pair in range 1x1"),
    ("CVG 1 1 1\n", 1, "CVG header needs 3 sizes and value sides"),
    ("CVG 1 1 1 IJ,XX\n", 1, "bad value sides 'IJ,XX'"),
    ("CVG 1 1 1 -\nAB 0 0 1\n", 2, "expected IJ|JK|IK edge, got 'AB'"),
    ("CVG 1 1 1 IJ\nIJ 0 0 1\n", 2, "IJ edge needs 4 fields"),
    ("IMX 1\n", 1, "IMX header needs rows and cols"),
    ("IMX 2 1\n5\n", 1, "IMX expects 2 row lines, got 1"),
    ("IMX 1 2\n5\n", 2, "row needs 2 entries, got 1"),
    ("IMX 1 1\nnan\n", 2, "bad matrix entry 'nan'"),
    ("SFI 4 1\n", 1, "SFI header needs |U| |F| q and optional CAP T"),
    (_SFI + "S 0 1 2\n", 2, "set line must look like 'S i : e1 e2 ...'"),
    (_SFI + "S 1 : 0\n", 2, "set index 1 out of range"),
    (_SFI + "S 0 : 0\nS 0 : 1\n", 3, "set 0 defined twice"),
    ("SFI 4 1 1\nQ 0\n", 2, "query line must look like 'Q i j'"),
    (_SFI + "X 0\n", 2, "expected S or Q line, got 'X'"),
    ("SFI 4 1 2\nS 0 : 1\nQ 0 0\n", 1, "header promises 2 queries, found 1"),
])
def test_each_parse_error_names_its_line_and_fault(text, line_no, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line_no, str(err.value)) == (
        line_no, f"line {line_no}: {message}")


def test_a_parse_error_exits_3_with_its_line(tmp_path, capsys):
    from fgtri.cli import main
    bad = tmp_path / "bad.twg"
    bad.write_text("TWG 1 1 1\nAB 0 0 1\nXY 0 0 1\n")
    assert main(["solve", "--solver", "zero-bf", "--in", str(bad)]) == 3
    assert capsys.readouterr().err == (
        "parse error: line 3: expected 'AB|BC|CA u v w', got 'XY 0 0 1'\n")


# ------------------------------------------------------------ argument guards

_ONE = TripartiteWeightedGraph((1, 1, 1))
_MOD5 = TripartiteWeightedGraph((1, 1, 1), weight_modulus=5)
_USAGE = fgtri.instances.UsageFailure


@pytest.mark.parametrize("call, kind, message", [
    (lambda: generate_tripartite(3, 0, False, RngStream(1)), _USAGE,
     "weight_bound must be >= 1"),
    (lambda: generate_colored((1, 1, 1), 0, 50, 1, frozenset(), RngStream(1)),
     _USAGE, "need at least one color"),
    (lambda: generate_colored((1, 1, 1), 1, 50, 0, frozenset({"IJ"}),
                              RngStream(1)),
     _USAGE, "value_range must be >= 1 when any side is valued"),
    (lambda: fgtri.ceil_log2(0), ValueError, "ceil_log2 needs x >= 1"),
    (lambda: TripartiteWeightedGraph((1, 1, 1), edges_ab=((0, 0),)),
     ValueError, "AB edge (0, 0): expected 3 fields"),
    (lambda: ColoredValuedGraph((1, 1, 1), value_sides={"XY"}), ValueError,
     "bad value_sides ['XY']"),
    (lambda: SetFamilyInstance(4, ((1, 1),), ()), ValueError,
     "set 0 has duplicate elements"),
    (lambda: fgtri.CombinedMonoInstance((), ()).decode([None]), ValueError,
     "answers do not align with the instances"),
    (lambda: fgtri.mono_product_bf(ColoredValuedGraph((1, 1, 1)), "nope"),
     _USAGE, "unknown mono product kind 'nope'"),
    (lambda: fgtri.product_bf(IntMatrix(1, 1, (0,)), IntMatrix(1, 1, (0,)),
                              "nope"),
     _USAGE, "unknown product kind 'nope'"),
    (lambda: fgtri.set_queries_bf(SetFamilyInstance(1, (), ()), "nope"),
     _USAGE, "unknown set query mode 'nope'"),
    (lambda: RngStream(1).child(1.5), TypeError,
     "stream labels must be int or str, got float"),
    (lambda: RngStream(1).randrange(0), ValueError,
     "randrange() requires n >= 1"),
    (lambda: RngStream(1).randint(2, 1), ValueError,
     "randint() requires lo <= hi"),
    (lambda: fgtri.SetDecodeMap(((0, 0),)).decode_disjointness([]),
     ValueError, "answers do not align with the queries"),
    (lambda: fgtri.SetDecodeMap(((0, 0),)).decode_intersection([]),
     ValueError, "answers do not align with the queries"),
    (lambda: fgtri.RangeSplit(5, 2).index_of(5), ValueError,
     "residue 5 outside [0, 5)"),
    (lambda: fgtri.default_per_edge_cap(4, 0), _USAGE,
     "range count s must be at least 1, got 0"),
    (lambda: fgtri.default_global_cap((4, 4, 4), -1), _USAGE,
     "range count s must be at least 1, got -1"),
    (lambda: fgtri.pick_prime(0, RngStream(1)), ValueError,
     "max_abs_weight must be >= 1"),
    (lambda: fgtri.randomize_weights(
        _ONE, fgtri.RandomizationData(5, 1, ((0,), (0,), ()))),
     ValueError, "offset lengths must match part sizes"),
    (lambda: fgtri.build_subinstance(_ONE, fgtri.RangeSplit(5, 1), (1, 1, 1)),
     ValueError, "subinstance selection needs mod-p weights"),
    (lambda: fgtri.build_subinstance(_MOD5, fgtri.RangeSplit(5, 1),
                                     (1, 1, 2)),
     ValueError, "range id 2 outside 1..1"),
])
def test_each_argument_guard_raises_its_message(call, kind, message):
    with pytest.raises(kind) as err:
        call()
    assert (type(err.value), str(err.value)) == (kind, message)


def test_a_stream_repr_names_its_seed_and_path():
    assert repr(RngStream(255, ("a", 2))) == (
        "RngStream(seed=0x00000000000000ff, path=('a', 2))")
