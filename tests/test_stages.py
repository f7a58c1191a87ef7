"""Each derived stage is computed once per analysis and shared by its consumers."""

import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (
    chamber_cone,
    enumerate_chambers,
    fresh_stages,
    order_regular_hyperplanes,
    replace,
)

from littleweyl import cli, cones, limits, linalg, spherical, verify
from littleweyl import lie as lie_module
from littleweyl.catalog import get_entry, list_entries
from littleweyl.lie import LieAlgebraData, build_from_cartan, cartan_matrix_of_type
from littleweyl.linalg import Subspace
from littleweyl.spherical import analyze, compression_cone, is_admissible
from littleweyl.verify import (
    random_order_regular,
    random_subspace,
    structural_invariants,
    weyl_invariants,
)
from littleweyl import weyl
from littleweyl.weyl import little_weyl_group, weyl_from_limits


def _record_linalg_calls(monkeypatch, attr: str) -> list:
    """Route every littleweyl name bound to linalg.<attr> through a recorder
    of (calling function, rows reduced) for each call.  A routine the
    library does not define (rref and mat_inverse are test oracles in
    conftest) must be bound in no littleweyl module, so it is never called
    and its list stays empty."""
    calls = []
    if not hasattr(linalg, attr):
        for name, module in list(sys.modules.items()):
            if name == "littleweyl" or name.startswith("littleweyl."):
                assert not hasattr(module, attr), f"{name}.{attr}"
        return calls
    original = getattr(linalg, attr)

    def recording(rows, *args):
        rows = [tuple(r) for r in rows]
        calls.append((sys._getframe(1).f_code.co_name, rows))
        return original(rows, *args)

    for name, module in list(sys.modules.items()):
        if name == "littleweyl" or name.startswith("littleweyl."):
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, recording)
    return calls


def _record_limit_calls(monkeypatch) -> list:
    """Route every littleweyl name bound to limit_subspace through a recorder
    of (subspace, direction) pairs."""
    calls = []
    original = limits.limit_subspace

    def recording(lie, e, x):
        calls.append((e, tuple(x)))
        return original(lie, e, x)

    for name, module in list(sys.modules.items()):
        if name == "littleweyl" or name.startswith("littleweyl."):
            if getattr(module, "limit_subspace", None) is original:
                monkeypatch.setattr(module, "limit_subspace", recording)
    return calls


def _riemannian_analysis(lie):
    """The analysis of g/so: h is spanned by the e_p - f_p."""
    h = Subspace.from_spanning(
        lie.dim,
        [
            tuple(
                {lie.e_index(p): 1, lie.f_index(p): -1}.get(k, 0) for k in range(lie.dim)
            )
            for p in range(lie.num_pos)
        ],
    )
    return analyze(lie, h)


def test_compression_cone_is_computed_once(a2, so3_subalgebra):
    an = analyze(a2, so3_subalgebra)
    assert compression_cone(an) is compression_cone(an)


def test_weyl_from_limits_reads_the_chamber_table(monkeypatch, a2, so3_subalgebra):
    an = analyze(a2, so3_subalgebra)
    assert is_admissible(an) and spherical.chamber_limits(an, an.h_z)[1]
    calls = _record_limit_calls(monkeypatch)
    report = weyl_from_limits(an)
    assert calls == []
    assert weyl_from_limits(an, "coroot") is report


def test_admissible_cli_flows_each_block_cell_once(monkeypatch, capsys):
    calls = _record_limit_calls(monkeypatch)
    assert cli.main(["admissible", "A1xA1_diag_w0", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["strategy"] == "self"
    # the echelon rows of the twisted diagonal pair e1 with f2, h1 with h2 and
    # e2 with f1; those weight differences are 0 and +-(alpha1 + alpha2), so
    # the 8 chambers fall into the two cells on either side of one hyperplane
    assert len(report["chambers"]) == 8
    assert sorted(Counter(calls).values()) == [1, 1]


def test_a3_chamber_table_takes_one_dd_per_base_chamber_and_one_limit_per_cell(
    monkeypatch,
):
    lie = build_from_cartan(cartan_matrix_of_type("A3"))
    an = _riemannian_analysis(lie)
    dd_calls = []
    original_dd = cones.Cone.from_inequalities

    def recording_dd(dim, gammas):
        dd_calls.append(dim)
        return original_dd(dim, gammas)

    fresh_stages(monkeypatch, lie)
    monkeypatch.setattr(cones.Cone, "from_inequalities", staticmethod(recording_dd))
    calls = _record_limit_calls(monkeypatch)
    chambers = spherical.order_regular_chambers(lie)
    assert chambers.count == 240
    assert is_admissible(an) and len(spherical.chamber_limits(an, an.h_z)[1]) == 240
    # one double description per chamber of the seed's Weyl chamber; the
    # W-images read signs and representatives without building a cone
    assert len(dd_calls) <= 10
    # g/so: E pairs e_p with f_p only, so the cells are the 24 Weyl chambers
    assert len(calls) == 24 == len(set(calls))


def test_a3_chamber_sweep_takes_one_double_description(monkeypatch):
    """With the chamber table and the limits cached, the sweep reads the
    passing chambers' sign vectors and builds one cone: hulling a cone per
    passing chamber took 2 double descriptions and 10 cone images."""
    an = _riemannian_analysis(build_from_cartan(cartan_matrix_of_type("A3")))
    spherical.chamber_limits(an, an.h_z)
    cone = compression_cone(an)
    calls = []
    original_dd = cones._dd

    def recording_dd(inequalities, dim):
        calls.append(dim)
        return original_dd(inequalities, dim)

    monkeypatch.setattr(cones, "_dd", recording_dd)
    assert spherical.compression_cone_of_point(an, an.h_z) == cone
    assert len(calls) == 1


def test_face_degenerations_are_analyzed_once(monkeypatch):
    entry = get_entry("A2_so3")
    an = analyze(entry.lie(), entry.base_point().h_z)
    faces = compression_cone(an).faces()
    degenerations = {spherical.boundary_degeneration(an, f).h_zf for f in faces}
    calls = []
    original = spherical.analyze

    def recording(lie, h_z):
        calls.append(h_z)
        return original(lie, h_z)

    monkeypatch.setattr(spherical, "analyze", recording)
    monkeypatch.setattr(verify, "analyze", recording)
    results = structural_invariants(an)
    results += weyl_invariants(an)
    assert results and all(r.ok for r in results)
    per_face = Counter(h for h in calls if h in degenerations)
    assert sorted(per_face.values()) == [1] * len(faces)


def test_simple_lifts_are_read_once_without_dense_exp_ad(monkeypatch, b2):
    lie = replace(b2)  # same algebra, no lifts computed yet
    series = []
    original = LieAlgebraData.exp_ad_apply

    def recording(self, x, v):
        series.append(x)
        return original(self, x, v)

    assert not hasattr(LieAlgebraData, "exp_ad")  # g has no dense operator
    monkeypatch.setattr(LieAlgebraData, "exp_ad_apply", recording)
    words = [w.word for w in lie.weyl_group.values()]
    first = [lie.weyl_lift(word) for word in words]
    assert len(series) == 3 * lie.rank * lie.dim
    assert [lie.weyl_lift(word) for word in words] == first
    assert len(series) == 3 * lie.rank * lie.dim


def test_one_bracket_table_serves_construction_analysis_and_invariants():
    """The bracket table, a field set at construction, is the algebra's only
    store of structure constants: no other field and no value cached on the
    algebra holds brackets.  validate, the Weyl lifts' series behind the
    analysis and weyl_from_limits, and lie_invariants on A2 g/so all read
    that one table."""
    reads = Counter()

    class Recording(dict):
        def items(self):
            reads[sys._getframe(1).f_code.co_name] += 1
            return super().items()

    key = (tuple(map(tuple, cartan_matrix_of_type("A2"))), 0)
    built = lie_module._build_cached.__wrapped__(key)
    fields = {*LieAlgebraData._fields, "_stages"}  # the constructor's fields and the stages
    assert fields == {
        "rank",
        "center_dim",
        "cartan_matrix",
        "symmetrizer",
        "positive_roots",
        "bracket_table",
        "form_matrix",
        "weights",
        "_stages",
    }
    table = tuple(tuple(Recording(comp) for comp in row) for row in built.bracket_table)
    a2 = replace(built, bracket_table=table)
    a2.validate()
    assert reads["validate"] > 0
    reads.clear()
    an = _riemannian_analysis(a2)
    assert reads["bracket"] > 0
    reads.clear()
    assert weyl_from_limits(an)
    assert reads["exp_ad_apply"] > 0
    reads.clear()
    assert all(r.ok for r in verify.lie_invariants(a2))
    assert reads["lie_invariants"] > 0
    assert a2.bracket_table is table
    assert set(vars(a2)) - fields <= {"weyl_group", "_simple_lifts", "_form_rows"}


def test_weyl_ambient_is_computed_once(monkeypatch, a2, so3_subalgebra):
    """The normalizer table, whose rows are the only LimitCosets built, is
    computed once and read by the group and by both lattices' limits."""
    an = analyze(a2, so3_subalgebra)
    calls = []
    original = weyl.LimitCoset

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(weyl, "LimitCoset", recording)
    little_weyl_group(an)
    weyl_from_limits(an, "coroot")
    weyl_from_limits(an, "coweight")
    assert len(calls) == len(weyl._normalizer(an)) == 6


def test_stages_are_keyed_by_their_bound_arguments(a2, so3_subalgebra):
    """A call that spells out a default reads the entry of one that omits
    it, and a stage read twice returns the one stored result."""
    an = analyze(a2, so3_subalgebra)
    assert weyl_from_limits(an) is weyl_from_limits(an, "coroot")
    assert weyl_from_limits(an, m_lattice="coroot") is weyl_from_limits(an)
    assert weyl.spherical_roots(an) is weyl.spherical_roots(an)


def test_positional_and_keyword_calls_share_one_stage_entry(monkeypatch, a1, a2, so3_subalgebra):
    """A stage maps keyword arguments to their positions, so each spelling
    of one call reads one entry; an unknown keyword, a missing argument, a
    repeated one or one too many raises TypeError and stores nothing."""

    def keys(owner, stage):
        return [key for key in owner._stages if key[0] is stage.__wrapped__]

    fresh_stages(monkeypatch, a1)
    suite = verify.limit_oracle_suite(a1, 25, 1)
    assert verify.limit_oracle_suite(a1, 25, seed=1) is suite
    assert verify.limit_oracle_suite(a1, count=25, seed=1) is suite
    assert verify.limit_oracle_suite(a1, seed=1, count=25) is suite
    assert keys(a1, verify.limit_oracle_suite) == [(verify.limit_oracle_suite.__wrapped__, 25, 1)]
    an = analyze(a2, so3_subalgebra)
    fresh_stages(monkeypatch, an)
    cosets = weyl_from_limits(an)
    assert weyl_from_limits(an, "coroot") is cosets
    assert weyl_from_limits(an, m_lattice="coroot") is cosets
    assert keys(an, weyl_from_limits) == [(weyl_from_limits.__wrapped__, "coroot")]
    stored = (dict(a1._stages), dict(an._stages))
    for args, kwargs, message in [
        ((), {}, "missing a required argument: 'count'"),
        ((), {"seed": 1}, "missing a required argument: 'count'"),
        ((25,), {"sed": 1}, "unexpected keyword argument 'sed'"),
        ((25,), {"count": 25}, "multiple values for argument 'count'"),
        ((25, 1, 2), {}, "too many positional arguments"),
    ]:
        with pytest.raises(TypeError, match=message):
            verify.limit_oracle_suite(a1, *args, **kwargs)
    with pytest.raises(TypeError, match="unexpected keyword argument 'lattice'"):
        weyl_from_limits(an, lattice="coroot")
    assert (a1._stages, an._stages) == stored


def test_a_stage_that_raises_stores_nothing(a2, so3_subalgebra):
    an = analyze(a2, so3_subalgebra)
    calls = []

    @spherical.stage
    def flaky(analysis, k=1):
        calls.append(k)
        if len(calls) == 1:
            raise ValueError("first call")
        return [k]

    with pytest.raises(ValueError, match="first call"):
        flaky(an)
    first = flaky(an)
    assert first == [1] and calls == [1, 1]
    assert flaky(an) is first and flaky(an, 1) is first and flaky(an, k=1) is first
    assert flaky(an, 2) == [2] and calls == [1, 1, 2]


def test_verify_reads_the_spherical_roots_once_per_analysis(monkeypatch, capsys):
    """The claims check and the Weyl invariants of a verify run both read
    the spherical roots of the one analysis of A2_so3; the degenerations'
    analyses read none."""
    built = []
    original = weyl.SphericalRootData

    def recording(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(weyl, "SphericalRootData", recording)
    assert cli.main(["verify", "A2_so3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["failed"] == 0
    assert len(built) == 1


def test_verify_all_runs_the_limit_oracle_once_per_algebra(monkeypatch, capsys):
    """The six catalog entries live in three algebras (A1 three times,
    A1xA1 once, A2 twice); the oracle suite runs once for each, and every
    entry still reports its own limit checks."""
    fresh_stages(monkeypatch, *(entry.lie() for entry in list_entries()))
    flows = []
    original_flow = verify.float_flow_oracle

    def recording_flow(lie, *args, **kwargs):
        flows.append(lie)
        return original_flow(lie, *args, **kwargs)

    monkeypatch.setattr(verify, "float_flow_oracle", recording_flow)
    assert cli.main(["verify", "--all", "--json", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == 0
    assert len(flows) == 77  # 153 with one suite per entry
    # one suite per algebra: 25 flows on A1, 26 on A1xA1 and 26 on A2
    assert sorted(Counter(map(id, flows)).values()) == [25, 26, 26]
    limit_checks = Counter(
        c["space"] for c in report["checks"] if c["name"].startswith("limit_")
    )
    assert sorted(limit_checks.values()) == [5] * 6


def test_the_limit_oracle_is_keyed_by_the_algebra_object(monkeypatch, a1):
    """An equal copy of an algebra may differ in its structure constants
    (they are not compared), so it runs the suite again; and the cached
    result is an immutable tuple.  A run is counted by the float flows it
    makes, at least one per instance."""
    fresh_stages(monkeypatch, a1)
    flows = []
    original = verify.float_flow_oracle

    def recording(lie, *args, **kwargs):
        flows.append(lie)
        return original(lie, *args, **kwargs)

    monkeypatch.setattr(verify, "float_flow_oracle", recording)
    first = verify.limit_oracle_suite(a1, 25, 1)
    per_run = len(flows)
    assert isinstance(first, tuple) and per_run >= 25
    assert verify.limit_oracle_suite(a1, 25, 1) is first
    assert len(flows) == per_run
    copy = replace(a1)
    assert copy == a1 and copy is not a1
    assert verify.limit_oracle_suite(copy, 25, 1) == first
    assert [id(lie) for lie in flows] == [id(a1)] * per_run + [id(copy)] * per_run
    verify.limit_oracle_suite(a1, 25, 2)
    assert len(flows) >= 2 * per_run + 25
    verify.limit_oracle_suite(a1, 26, 1)
    assert len(flows) >= 2 * per_run + 25 + 26


def test_the_chamber_table_is_a_stage_of_the_algebra(a2):
    """The same algebra returns the same table object; a copy built from
    the same fields has stages of its own and builds an equal table again.
    No module keeps a cache of tables or oracle suites beside the stages."""
    table = spherical.order_regular_chambers(a2)
    assert spherical.order_regular_chambers(a2) is table
    copy = replace(a2)
    again = spherical.order_regular_chambers(copy)
    assert again is not table and again == table
    assert (again.ends, again.pairs) == (table.ends, table.pairs)
    assert spherical.order_regular_chambers(copy) is again
    for module, name in [(spherical, "_CHAMBER_CACHE"), (verify, "_ORACLE_CACHE")]:
        assert not hasattr(module, name)


def test_limit_runs_two_row_reductions_whatever_the_levels(monkeypatch):
    a3 = build_from_cartan(cartan_matrix_of_type("A3"))
    rng = random.Random(3)
    x = random_order_regular(a3, rng)
    e = random_subspace(a3, rng, 6)
    assert limits.graded_direction(a3, x).levels == 13
    calls = _record_linalg_calls(monkeypatch, "integer_echelon")
    assert limits.limit_subspace(a3, e, x).dim == 6
    assert len(calls) <= 2


def test_a3_chambers_take_few_row_reductions(monkeypatch):
    """The chamber enumeration row-reduces integer rows only, and takes no
    rank: the double description keeps a ray by the zero sets of its
    neighbours and reads the facets off the rays' zero sets.  The full
    traversal takes 1 200 integer echelon forms for the 240 chambers of A3,
    5 per chamber: one for the whole space, one per inequality that splits
    the lineality and one for the span of the cone (22 098 when the double
    description took a rank per ray and the facet test one per inequality).
    The order-regular table takes 74: 5 for each of its 10 base chambers and
    one per element of W for the lineality, none per W-image.  The inverse
    of each element of W is read off the table, so no map is inverted."""
    a3 = build_from_cartan(cartan_matrix_of_type("A3"))
    a3.weyl_group
    hyperplanes = order_regular_hyperplanes(a3)
    rref_calls = _record_linalg_calls(monkeypatch, "rref")
    echelon_calls = _record_linalg_calls(monkeypatch, "integer_echelon")
    rank_calls = _record_linalg_calls(monkeypatch, "integer_rank")
    chambers = enumerate_chambers(a3.dim_a, hyperplanes)
    assert chambers.count == 240
    assert rref_calls == [] and rank_calls == []
    assert len(echelon_calls) <= 1_200
    echelon_calls.clear()
    fresh_stages(monkeypatch, a3)
    assert spherical.order_regular_chambers(a3).count == 240
    assert rref_calls == [] and rank_calls == []
    assert len(echelon_calls) <= 74


def test_a3_orbit_moves_signs_by_lookups_and_each_ray_once(monkeypatch):
    """W moves the A3 g/so chamber table by its root permutations: the sign
    action is table lookups with no dot, and each of the 9 distinct base
    rays is moved and pulled back once per element, at most 2 * 24 * 9 =
    432 mat_vec calls (960 when the rays were moved per chamber and each
    weight tried pulled the point back, 1 512 dots for the matrix-based
    signed permutations)."""
    a3 = build_from_cartan(cartan_matrix_of_type("A3"))
    a3.weyl_group
    fresh_stages(monkeypatch, a3)
    mat_vec_calls = _record_linalg_calls(monkeypatch, "mat_vec")
    table = spherical.order_regular_chambers(a3)
    assert table.count == 240
    assert len(mat_vec_calls) <= 432

    dot_calls = []
    original = linalg.dot

    def recording_dot(a, b):
        dot_calls.append(sys._getframe(1).f_code.co_name)
        return original(a, b)

    for name, module in list(sys.modules.items()):
        if name == "littleweyl" or name.startswith("littleweyl."):
            if getattr(module, "dot", None) is original:
                monkeypatch.setattr(module, "dot", recording_dot)
    signs = [ch.signs for ch in table.chambers]
    images = {
        act(s) for act in (table.sign_action(w.perm) for w in a3.weyl_group.values()) for s in signs
    }
    assert len(images) == 240
    assert dot_calls == []


def test_a3_little_weyl_group_inverts_no_matrix(monkeypatch):
    """The closure, the Coxeter orders and the inverses of the little Weyl
    group of A3 g/so run on root permutations, and spherical_roots and the
    tiling's cone translates read the inverse of each element off the Weyl
    group table, so no matrix is inverted.  Inverting each translate's map
    made 24 calls; closing the matrices on a/a_h as well made 72."""
    an = _riemannian_analysis(build_from_cartan(cartan_matrix_of_type("A3")))
    compression_cone(an).walls()
    calls = _record_linalg_calls(monkeypatch, "mat_inverse")
    group = little_weyl_group(an)
    weyl.spherical_roots(an)
    assert group.order == 24
    assert calls == []


def test_tiling_translates_the_compression_cone_in_a(monkeypatch):
    """The tiling check reads the order-regular chamber table, which every
    caller of little_weyl_group has built: the realizers move the table's
    chambers inside the compression cone by their signed permutations of
    the hyperplanes.  So once the table is cached the stage enumerates no
    chambers, and its double descriptions are the walls', all in a: one on
    A1xA1_diag_w0, where a_h is a line, and 3 on A3 g/so (27 when the check
    chambered the arrangement of the translates' facets)."""
    dims, traversals = [], []
    original_dd = cones._dd

    def recording_dd(inequalities, dim):
        dims.append(dim)
        return original_dd(inequalities, dim)

    monkeypatch.setattr(cones, "_dd", recording_dd)
    original = cones.traverse_chambers

    def recording(*args):
        traversals.append("traverse_chambers")
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "littleweyl" or name.startswith("littleweyl."):
            if getattr(module, "traverse_chambers", None) is original:
                monkeypatch.setattr(module, "traverse_chambers", recording)

    entry = get_entry("A1xA1_diag_w0")
    diag = analyze(entry.lie(), entry.base_point().h_z)
    a3 = _riemannian_analysis(build_from_cartan(cartan_matrix_of_type("A3")))
    for an, order, walls in [(diag, 2, 1), (a3, 24, 3)]:
        compression_cone(an)
        spherical.order_regular_chambers(an.lie)
        dims.clear()
        traversals.clear()
        assert little_weyl_group(an).order == order
        assert traversals == []
        assert set(dims) == {an.lie.dim_a}
        assert len(dims) <= walls


def test_a3_weyl_layer_reads_walls_and_lattice_without_extra_work(monkeypatch):
    """wall_reflection reads each wall's weight off the wall's span, so it
    builds no cone: cutting the compression cone by each candidate weight
    took 6 double descriptions on A3 g/so.  spherical_roots acts on Lambda
    through W's root permutations, with one solve per element and lattice
    vector; reading each action through the a/a_E quotient as well made the
    group and its roots take 144 solves."""
    an = _riemannian_analysis(build_from_cartan(cartan_matrix_of_type("A3")))
    walls = compression_cone(an).walls()
    dd_calls, solve_calls = [], []
    original_dd = cones.Cone.from_inequalities
    original_solve = weyl.solve

    def recording_dd(dim, gammas):
        dd_calls.append(dim)
        return original_dd(dim, gammas)

    def recording_solve(*args):
        solve_calls.append(args)
        return original_solve(*args)

    monkeypatch.setattr(cones.Cone, "from_inequalities", staticmethod(recording_dd))
    monkeypatch.setattr(weyl, "solve", recording_solve)
    assert len([weyl.wall_reflection(an, wall) for wall in walls]) == 3
    assert dd_calls == []
    little_weyl_group(an)
    roots = weyl.spherical_roots(an)
    assert len(roots.roots) == 12
    assert len(solve_calls) <= 72


def test_a3_cones_and_chambers_store_ints(monkeypatch):
    """The order-regular table, the admissibility test and the little Weyl
    group of A3 g/so build no Fraction in the cone layer: cones, chambers and
    the arrangement store primitive int vectors, and the only Fraction there
    is the view that reports print.  Storing Fraction copies built one per
    entry of every cone and chamber representative."""
    built = []

    def recording(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(cones, "Fraction", recording)
    an = _riemannian_analysis(build_from_cartan(cartan_matrix_of_type("A3")))
    fresh_stages(monkeypatch, an.lie)
    table = spherical.order_regular_chambers(an.lie)
    assert is_admissible(an)
    assert len(spherical.chamber_limits(an, an.h_z)[1]) == table.count == 240
    assert little_weyl_group(an).order == 24
    cone = compression_cone(an)
    cone_list = [cone, *cone.walls(), *(chamber_cone(table, ch) for ch in table.chambers)]
    assert built == []
    entries = [x for ch in table.chambers for x in ch.representative]
    entries += [x for h in table.hyperplanes for x in h]
    for c in cone_list:
        entries += [x for row in (*c.inequalities, *c.rays, *c.facets) for x in row]
    assert entries and all(type(x) is int for x in entries)


def test_structural_invariants_degenerate_each_face_once(monkeypatch):
    entry = get_entry("A2_so3")
    an = analyze(entry.lie(), entry.base_point().h_z)
    calls = []
    original = spherical.DegenerationData

    def recording(face, *args):
        calls.append(face)
        return original(face, *args)

    monkeypatch.setattr(spherical, "DegenerationData", recording)
    results = structural_invariants(an)
    assert results and all(r.ok for r in results)
    faces = compression_cone(an).faces()
    assert len(faces) > 1
    assert sorted(Counter(calls).values()) == [1] * len(faces)


def test_integer_subspace_stages_make_no_rref_call(monkeypatch):
    """normalizer_in_a, analyze with its T-map and the conjugate table of
    weyl_from_limits run on integer echelon rows: none of them takes the
    Fraction reduced row echelon form."""
    entry = get_entry("A2_so3")
    lie, h_z = entry.lie(), entry.base_point().h_z
    calls = _record_linalg_calls(monkeypatch, "rref")
    an = analyze(lie, h_z)
    assert an.sigma_q and an.t_map
    assert spherical.normalizer_in_a(lie, h_z).dim == 0
    assert weyl._conjugate_table(an, "coroot")
    assert calls == []


def test_a3_analyze_eliminates_each_linear_system_once(monkeypatch):
    """On A3 g/so, T's system has the 9 annihilator rows of h_z and 9
    unknowns (a_circ is a, and Sigma(Q) has 6 roots), and T^perp's has the 6
    rows of h_z and 6 unknowns.  Each is eliminated once, augmented with all
    its right-hand sides: 6 for T, one per root of Sigma(Q), and 3 for
    T^perp, one per row of a_circ.  One elimination per right-hand side
    made 6 and 3, and T's uniqueness test took a seventh."""
    lie = build_from_cartan(cartan_matrix_of_type("A3"))
    h_z = _riemannian_analysis(lie).h_z
    calls = _record_linalg_calls(monkeypatch, "integer_echelon")
    an = analyze(lie, h_z)
    assert (an.a_circ.dim, len(an.sigma_q)) == (3, 6)
    solves = [rows for caller, rows in calls if caller in ("solve", "solve_columns")]
    assert [(len(rows), len(rows[0])) for rows in solves] == [(9, 9 + 6), (6, 6 + 3)]
    assert not any(caller == "integer_rank" and len(rows) == 9 for caller, rows in calls)


def test_tperp_reads_coordinates_off_the_pivots(monkeypatch):
    """T^perp(X) reads X's coordinates on the integer rows of a_circ off
    their pivots: no elimination, where a solve on the a_circ basis took one
    per call."""
    an = _riemannian_analysis(build_from_cartan(cartan_matrix_of_type("A3")))
    xs = [*an.a_circ.rows, (1, Fraction(-2, 3), 5)]
    want = [an.tperp(x) for x in xs]
    calls = _record_linalg_calls(monkeypatch, "integer_echelon")
    assert [an.tperp(x) for x in xs] == want
    assert calls == []
    # the defining property: X + T^perp(X) in h_z^perp, with T^perp(X) in n_Q
    hperp = an.lie.orthocomplement(an.h_z)
    for x, img in zip(xs, want):
        assert an.n_q.contains_vector(img)
        assert hperp.contains_vector([a + b for a, b in zip(an.lie.a_vector_to_g(x), img)])
    entry = get_entry("A1xA1_diag_w0")
    diag = analyze(entry.lie(), entry.base_point().h_z)
    assert diag.a_circ.dim == 1
    with pytest.raises(ValueError, match="not in a_circ"):
        diag.tperp(next(x for x in ((1, 0), (0, 1)) if not diag.a_circ.contains_vector(x)))


def test_analyze_computes_l_q_cap_h_z_once(monkeypatch):
    """recover_q's two identities and analyze read one l_Q cap h_z, which
    the parabolic datum carries; each computed its own, 3 in all.  The point
    is the horospherical [l_Q, l_Q] + nbar_Q of A2 with alpha_1 in the Levi,
    so that l_Q is not a."""
    lie = build_from_cartan(cartan_matrix_of_type("A2"))
    basis = linalg.identity(lie.dim)
    coroot1 = lie.a_vector_to_g(lie.coroot(lie.positive_roots[0]))
    rows = [basis[lie.e_index(0)], basis[lie.f_index(0)], coroot1]
    h_z = Subspace.from_spanning(lie.dim, rows + [basis[lie.f_index(p)] for p in (1, 2)])
    pairs = []
    original = Subspace.intersect

    def recording(self, other):
        pairs.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Subspace, "intersect", recording)
    an = analyze(lie, h_z)
    assert an.sigma0 == (0,) and an.l_q != lie.a_subspace()
    assert pairs.count((an.l_q, h_z)) == 1
    assert an.l_cap_h == original(an.l_q, h_z)
