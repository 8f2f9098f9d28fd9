"""Domain types, generators, and the text round trip."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgtri
from fgtri import (ColoredValuedGraph, IntMatrix, MINUS_INF, PLUS_INF,
                   RngStream, SetFamilyInstance, TripartiteWeightedGraph,
                   ae_mono_triangle_bf, ae_mono_triangle_fast,
                   ae_monoeq_triangle_bf,
                   balanced_split, generate_colored, generate_matrix,
                   generate_set_family, generate_sparse_tripartite,
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
                                  (0, 1, 1.5)])
def test_twg_rejects_non_integer_endpoints_and_weights(edge):
    # A float endpoint passes a range check, and a solver fails on it later.
    for pair in ("edges_ab", "edges_bc", "edges_ca"):
        for modulus in (None, 5):
            with pytest.raises(ValueError, match="not an integer"):
                TripartiteWeightedGraph((2, 2, 2), **{pair: (edge,)},
                                        weight_modulus=modulus)


@pytest.mark.parametrize("sizes", [(2.0, 2, 2), (2, 2, 0.5), ("2", 2, 2),
                                   (2, None, 2), (2, -1, 2), (2, 2)])
def test_graphs_reject_part_sizes_that_are_not_counts(sizes):
    # A float size passed before: its graph failed later (edge_count raised
    # TypeError, and serialize wrote a size that parse rejects).
    with pytest.raises(ValueError, match="part_sizes"):
        TripartiteWeightedGraph(sizes, ((0, 0, 1),))
    with pytest.raises(ValueError, match="part_sizes"):
        ColoredValuedGraph(sizes)


@pytest.mark.parametrize("modulus", [7.5, 5.0, "5", 0, -3])
def test_twg_rejects_a_modulus_that_is_not_a_positive_integer(modulus):
    with pytest.raises(ValueError, match="weight_modulus"):
        TripartiteWeightedGraph((1, 1, 1), ((0, 0, 1),),
                                weight_modulus=modulus)


def test_twg_weights_stay_unbounded_without_a_modulus():
    big = TripartiteWeightedGraph((1, 1, 1), ((0, 0, -10 ** 30),),
                                  ((0, 0, 10 ** 30),), ((0, 0, 0),))
    assert big.max_abs_weight() == 10 ** 30


def test_cvg_rejects_non_integer_endpoints():
    for u, v in ((0.0, 0), (0, 0.5), ("0", 0), (0, None)):
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
                         (None, 0), (0, "5")):
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
    m = IntMatrix.from_rows([[1, PLUS_INF], [MINUS_INF, -4]])
    assert m.to_rows()[0][1] == PLUS_INF
    assert m.transpose().to_rows()[1][0] == PLUS_INF


@pytest.mark.parametrize("entry", [1.5, "3", None])
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
    a = IntMatrix.from_rows([[1, 2]])
    b = IntMatrix.from_rows([[3], [4]])
    docs = parse_documents(serialize(a) + serialize(b))
    assert docs == [a, b]
