import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from conftest import (
    bench_module,
    dense,
    oracle_constrained_rank,
    oracle_gram_spectrum,
    oracle_unbroken_spectrum,
    random_triangulation,
    rank_mod_p,
    unbroken_restriction,
)

from brokensurf import cli, fileio, forms, samples
from brokensurf.errors import (
    ChartMismatch,
    DegenerateEdge,
    InvalidDecoration,
    MatrixTooLarge,
    NumericalBreakdown,
)
from brokensurf.foliation import BrokenMeasure
from brokensurf.hyperbolic import EPS, GAP_FLOOR, DecoratedBrokenHyperbolic
from brokensurf.triangulation import NEXT, PREV


def test_wp_form_matrix_shape(torus):
    omega = dense(forms.wp_form(torus))
    n = 3 * torus.faces
    assert omega.shape == (n, n)
    assert np.allclose(omega, -omega.T)
    # block per face, -2 above the cyclic diagonal
    assert omega[0, 1] == -2.0
    assert omega[1, 0] == 2.0
    assert omega[0, 3] == 0.0


def test_thurston_small_matrix(torus):
    iota = forms.thurston_form(torus)
    assert iota.chart == forms.CHART_SMALL
    matrix = dense(iota)
    assert matrix[0, 1] == -0.5
    assert np.allclose(matrix, -matrix.T)


def test_transporting_small_chart_reproduces_cyclic_pattern(torus, sphere):
    # the corner equations are involutive up to factor: pushing the small
    # chart through them must land back on a cyclic block form exactly,
    # since every entry is dyadic
    for T in (torus, sphere):
        large = forms.thurston_form(T, forms.CHART_LARGE)
        direct = dense(forms.thurston_form(T))  # same block pattern
        assert np.array_equal(dense(large), direct)


def test_chart_mismatch(torus):
    omega = forms.wp_form(torus)
    u = np.zeros(6)
    with pytest.raises(ChartMismatch):
        omega.evaluate(np.zeros(5), u)
    with pytest.raises(ChartMismatch):
        forms.thurston_form(torus, "no_such_chart")


def test_evaluate_antisymmetry(torus, gen):
    omega = forms.wp_form(torus)
    u = gen.standard_normal(6)
    v = gen.standard_normal(6)
    assert omega.evaluate(u, v) == pytest.approx(-omega.evaluate(v, u), rel=1e-12)


def test_pullback_residual_exact(torus, sphere):
    assert forms.pullback_residual(torus) == 0.0
    assert forms.pullback_residual(sphere) == 0.0


def test_gap_chart_roundtrip(sphere, gen):
    H = samples.random_valid_structure(sphere, gen)
    m = forms.to_measure(H)
    assert m.w == pytest.approx(H.gaps(), abs=1e-15)
    back = forms.from_measure(m)
    for p in sphere.pairs:
        assert back.lam[p] == pytest.approx(H.lam[p], rel=1e-13)


def test_measure_chart_roundtrip(torus, gen):
    m = samples.random_measure(torus, gen)
    again = forms.to_measure(forms.from_measure(m))
    for p in torus.pairs:
        assert again.w[p] == pytest.approx(m.w[p], abs=1e-12)


def test_from_measure_rejects_negative(torus):
    w = {p: 1.0 for p in torus.pairs}
    w[(0, 0)] = -0.5
    with pytest.raises(InvalidDecoration):
        forms.from_measure(BrokenMeasure(torus, w))


def test_from_measure_past_float_range_breaks_down(torus):
    # exp used to overflow with a numpy warning and an untyped ValueError
    w = np.full((2, 3), 1400.0)
    w[0, 1] = w[1, 0] = 1500.0
    message = "lambda at (0, 1) overflows at weight 1500.0"
    with pytest.raises(NumericalBreakdown, match=re.escape(message)):
        forms.from_measure(BrokenMeasure(torus, w))
    m = BrokenMeasure(torus, np.full((2, 3), 1400.0))
    assert forms.to_measure(forms.from_measure(m)).w == pytest.approx(m.w, rel=1e-15)


def test_scaling_identity_residual(torus, gen):
    H = samples.random_valid_structure(torus, gen)
    omega = forms.wp_form(torus)
    for x in (1e3, 1.0, 1e-1, 1e-3):
        u = gen.standard_normal(6)
        v = gen.standard_normal(6)
        res = forms.scaling_identity_residual(H, x, u, v)
        ref = x * x * abs(omega.evaluate(u, v))
        assert res <= 1e-12 * max(ref, 1.0)


def test_ray_measure_matches_materialized(torus, gen):
    H = samples.random_valid_structure(torus, gen)
    for n in (1.0, 3.0, 50.0, 400.0):
        symbolic = forms.ray_measure(H, n)
        blown = DecoratedBrokenHyperbolic(torus, math.exp(n / 2.0) * H.lam)
        direct = forms.to_measure(blown).scale(1.0 / n)
        for p in torus.pairs:
            assert symbolic.w[p] == pytest.approx(direct.w[p], abs=1e-12)


def test_ray_measure_names_the_overflowing_weight(torus, gen):
    H = samples.random_valid_structure(torus, gen)
    with pytest.raises(ValueError) as info:
        forms.ray_measure(H, 1e-320)
    assert str(info.value) == (
        "(n + gap) / n at n = 1e-320: weight at (0, 0) must be finite, got inf"
    )


def test_ray_measure_limit(torus, gen):
    H = samples.random_valid_structure(torus, gen)
    sup = max(abs(forms.ray_measure(H, 1e6).w[p] - 1.0) for p in torus.pairs)
    assert sup <= 1e-4


def test_rank_unconstrained(torus, sphere):
    for T in (torus, sphere):
        report = forms.rank_report(T)
        assert report.dim == 3 * T.faces
        assert report.rank == 2 * T.faces
        assert not report.constrained


def test_rank_constrained_deterministic(sphere):
    ranks = set()
    for seed in (0, 1, 2, 3):
        H = samples.random_valid_structure(sphere, samples.rng(seed))
        report = forms.rank_report(sphere, H, constrained=True)
        assert report.constrained
        assert report.tangent_dim == 3 * sphere.faces - report.num_constraints
        ranks.add(report.rank)
    assert len(ranks) == 1


def test_rank_constrained_needs_structure(torus):
    with pytest.raises(ValueError):
        forms.rank_report(torus, constrained=True)


def test_unbroken_rank(torus, sphere, monkeypatch):
    # Penner's rank 6g - 6 + 2s: 2 on the torus (g = s = 1), 0 on the
    # sphere, whose s = E = 3 horocycle scalings span everything, so
    # nothing is left to factor.  Each edge's six block entries hold four
    # of magnitude 2, so b = 8^2 and the floor is sqrt(E eps b) on both.
    for T, rank in ((torus, 2), (sphere, 0)):
        assert forms.unbroken_rank_report(T).to_dict() == {
            "chart": forms.CHART_LOG_LAMBDA,
            "dim": 3,
            "rank": rank,
            "constrained": False,
            "subspace": "unbroken",
            "singular_value_floor": math.sqrt(3 * EPS * 64.0),
        }

    def refuse(_):
        raise AssertionError("the sphere's certificate factored a matrix")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    assert forms.unbroken_rank_report(sphere).rank == 0


def test_tables_flatten_in_chart_order(torus, gen):
    # a pair table read row by row is the chart vector the forms take
    H = samples.random_valid_structure(torus, gen)
    ell = np.log(H.lam).ravel()
    assert ell.shape == (6,)
    assert ell[0] == pytest.approx(math.log(H.lam[(0, 0)]))
    m = samples.random_measure(torus, gen)
    vec = m.w.ravel()
    assert vec[4] == m.w[(1, 1)]


def test_form_coordinate_order_is_flat_pair_index(torus):
    # coordinate 3f + s is pair (f, s): unit vectors on one face pair to
    # the block entry of their slots, on different faces to zero
    eye = np.eye(6)
    for form in (
        forms.wp_form(torus),
        forms.thurston_form(torus),
        forms.thurston_form(torus, forms.CHART_LARGE),
    ):
        assert form.faces == 2
        got = np.array([[form.evaluate(u, v) for v in eye] for u in eye])
        assert np.array_equal(got, np.kron(np.eye(2), form.block))


@pytest.mark.parametrize("faces", [2, 20, 200])
def test_ranks_on_random_surfaces(faces):
    T = random_triangulation(faces, seed=faces)
    assert forms.rank_report(T).rank == 2 * faces
    # Penner: the wp form on unbroken structures has rank 6g - 6 + 2s.
    penner = 6 * T.genus - 6 + 2 * T.num_punctures
    assert forms.unbroken_rank_report(T).rank == penner
    assert forms.pullback_residual(T) == 0.0


def assert_unbroken_report_matches_oracle(T):
    got = forms.unbroken_rank_report(T)
    want = oracle_unbroken_spectrum(T)
    s = T.num_punctures
    assert got.rank == want.rank == T.num_edges - s
    # the certificate lists no values, and its floor is below every
    # nonzero one the dense SVD finds
    assert "singular_values" not in got.to_dict()
    assert 0.0 < got.singular_value_floor
    assert all(got.singular_value_floor < v for v in want.singular_values[: got.rank])


def test_unbroken_spectrum_matches_dense_oracle(table_surface):
    assert_unbroken_report_matches_oracle(table_surface)


def test_unbroken_spectrum_matches_dense_oracle_on_bench_file(tmp_path):
    # the benchmark generator's F=400 seed-1 surface, read back from its file
    surf = bench_module("surfaces")
    surface = surf.random_surface("f400", 400, 1, kinds=("broken",))
    T = fileio.load(surf.write_files(surface, str(tmp_path))["triangulation"])
    assert T.faces == 400
    assert_unbroken_report_matches_oracle(T)


def test_unbroken_kernel_witness_at_scale():
    # Penner's horocycle scalings: growing the horocycle at puncture i
    # adds 1 to log lambda once per end of an edge at i.  V[e, i] counts
    # those ends, and the unbroken restriction A kills each column
    # exactly, in integers: an E - s = 6g - 6 + 2s rank certificate read
    # off the corner-cycle census, which A is not built from.
    T = random_triangulation(2000, seed=1)
    edge = T.edge_index
    ends = np.zeros((T.num_edges, T.num_punctures), dtype=int)
    np.add.at(ends, (edge, T.puncture_of[:, NEXT]), 1)
    np.add.at(ends, (edge, T.puncture_of[:, PREV]), 1)
    # both sides of every edge name the same two ends
    assert (ends % 2 == 0).all() and (ends.sum(axis=1) == 4).all()
    V = forms.horocycle_kernel(T)
    assert np.array_equal(V, ends // 2)
    A = unbroken_restriction(T)
    assert (A @ V == 0).all()
    assert np.linalg.matrix_rank(V) == T.num_punctures
    s, penner = T.num_punctures, 6 * T.genus - 6 + 2 * T.num_punctures
    assert T.num_edges - s == penner

    # the certified rank and floor against the Gram eigensolve's values
    # with their written zeros: no dense SVD at E = 3000
    report = forms.unbroken_rank_report(T)
    sv = np.array(oracle_gram_spectrum(T))
    assert report.rank == penner
    assert 0.0 < report.singular_value_floor < sv[penner - 1]
    assert (sv[:penner] > 0.0).all() and sv[penner:].tolist() == [0.0] * s
    assert (np.diff(sv) <= 0.0).all()
    # the squared sum is the squared Frobenius norm of A
    assert abs(np.sum(sv**2) - np.sum(A**2)) <= 1e-12 * np.sum(A**2)
    # the top value against a power iteration on sparse A: the two top
    # values read 6.655 and 6.644, so the estimate rises slowly, from below
    sparse = scipy.sparse.csr_array(A)
    x = samples.rng(0).standard_normal(T.num_edges)
    for _ in range(2000):
        x = sparse.T @ (sparse @ x)
        x /= np.linalg.norm(x)
    top = np.linalg.norm(sparse @ x)
    assert sv[0] * (1.0 - 1e-8) <= top <= sv[0] * (1.0 + 1e-12)


def cutoff_pair_message(T, monkeypatch) -> str:
    """Check that the certificate tells A's smallest nonzero value within 1%.

    A rank cutoff just above A's smallest nonzero singular value puts the
    floor above its Gram eigenvalue, so the shifted Gram matrix is not
    positive definite: NumericalBreakdown.  Just below it the certificate
    passes.  Leaves the cutoff above; returns the breakdown's message.
    """
    penner = T.num_edges - T.num_punctures
    smallest = oracle_unbroken_spectrum(T).singular_values[penner - 1]
    norm = forms._norm(forms.wp_form(T))
    monkeypatch.setattr(forms, "RANK_CUTOFF", 0.99 * smallest / norm)
    assert forms.unbroken_rank_report(T).rank == penner
    monkeypatch.setattr(forms, "RANK_CUTOFF", 1.01 * smallest / norm)
    cutoff = forms.RANK_CUTOFF * norm
    floor = cutoff * cutoff
    message = (
        f"unbroken Gram matrix less its floor {floor} is not positive definite "
        "beyond the horocycle kernel"
    )
    with pytest.raises(NumericalBreakdown, match=re.escape(message)):
        forms.unbroken_rank_report(T)
    return message


def assert_forms_keeps_its_other_figures(T, path, capsys, err):
    """Check forms on T's file: exit 4 with the one stderr line err, and
    a document with every figure but unbroken_rank, which is null."""
    fileio.save(path, T)
    assert cli.main(["forms", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.err == err
    doc = json.loads(captured.out)
    assert doc["unbroken_rank"] is None
    assert doc["census"]["faces"] == T.faces and doc["pullback_residual"] == 0.0
    assert doc["rank"] == forms.rank_report(T).to_dict()


def test_unbroken_rank_breaks_down_where_gram_cannot_resolve(
    tmp_path, monkeypatch, capsys
):
    # the breakdown is exit 4 with one typed line, after the document
    T = random_triangulation(20, seed=20)
    message = cutoff_pair_message(T, monkeypatch)
    err = f"NumericalBreakdown: {message}\n"
    assert_forms_keeps_its_other_figures(T, tmp_path / "tri.json", capsys, err)


@pytest.mark.parametrize(
    "cap, widths",
    [
        # the default width: one panel at E = 30, and at E = 300 three
        # of 100; one panel; 64 columns: one panel at E = 30, and at
        # E = 300 five of 60; 8 columns: four panels at E = 30 and 38 at
        # E = 300, the last one partial; the last two panels are always
        # factored as one
        (forms.GRAM_PANEL, {30: [30], 300: [100, 200]}),
        (10**6, {30: [30], 300: [300]}),
        (64, {30: [30], 300: [60, 60, 60, 120]}),
        (8, {30: [8, 8, 14], 300: [8] * 36 + [12]}),
    ],
    ids=["default", "one-panel", "cap-64", "cap-8"],
)
def test_unbroken_rank_at_every_panel_width(monkeypatch, cap, widths):
    # the blocked Cholesky decides the same rank, and the same 1% cutoff
    # pair, however many panels it takes and whatever width the last has
    monkeypatch.setattr(forms, "GRAM_PANEL", cap)
    blocks, cholesky = [], np.linalg.cholesky

    def recording(a):
        blocks.append(len(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    for faces in (20, 200):
        T = random_triangulation(faces, seed=faces)
        blocks.clear()
        assert forms.unbroken_rank_report(T).rank == T.num_edges - T.num_punctures
        assert blocks == widths[T.num_edges]
        # gram's lower triangle ends as the factor L of the shifted M, to
        # a backward error of a few ulps of M's largest entries (about 70)
        A = unbroken_restriction(T)
        q = np.linalg.svd(forms.horocycle_kernel(T), full_matrices=False)[0]
        gram, floor = A.T @ A, 1e-6
        M = gram + 64.0 * q @ q.T - floor * np.eye(len(A))
        forms._clears_floor_beyond(q, gram, 64.0, floor)
        L = np.tril(gram)
        assert np.abs(L @ L.T - M).max() <= 1e-13
    # at E = 300 a breakdown can come from a later panel, after the
    # earlier panels' products and solves
    for faces in (20, 200):
        cutoff_pair_message(random_triangulation(faces, seed=faces), monkeypatch)


@pytest.mark.parametrize("name", ["torus", "sphere", "F20", "F60", "F200"])
def test_unbroken_rank_is_the_exact_rank_mod_p(request, name):
    # V is an exact kernel of the integer matrix A, so rank A <= E - s,
    # and a rank mod p never exceeds the rational rank: rank_p = E - s
    # proves the rank the floating-point certificate reports
    if name in ("torus", "sphere"):
        T = request.getfixturevalue(name)
    else:
        T = random_triangulation(int(name[1:]), seed=int(name[1:]))
    A = unbroken_restriction(T)
    assert (A @ forms.horocycle_kernel(T) == 0).all()
    E, s = T.num_edges, T.num_punctures
    assert rank_mod_p(A) == E - s == forms.unbroken_rank_report(T).rank


def test_rank_mod_p_against_float_rank():
    # the oracle itself: on the leading principal blocks of an F=20
    # restriction, whose ranks rise unevenly, it agrees with an SVD rank
    A = unbroken_restriction(random_triangulation(20, seed=20))
    ranks = [rank_mod_p(A[:n, :n]) for n in range(1, len(A) + 1)]
    assert ranks == [np.linalg.matrix_rank(A[:n, :n]) for n in range(1, len(A) + 1)]
    assert len(set(ranks)) > 10


def test_unbroken_certificate_holds_one_gram_buffer():
    # the shift and the factorisation run in the Gram matrix's storage,
    # so the traced peak stays near one E x E array: 1.29 of it at
    # E = 600, where the two-half factorisation held 2.04.  tracemalloc
    # sees numpy's arrays but not LAPACK's internal copies of a block.
    T = random_triangulation(400, seed=400)
    E = T.num_edges
    forms.unbroken_rank_report(T)  # first-call allocations stay out
    tracemalloc.start()
    try:
        forms.unbroken_rank_report(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * E * E


def test_unbroken_rank_checks_its_kernel(monkeypatch):
    # the certificate shifts span(V) away, so V must be an s-dimensional
    # kernel of A: a repeated column, or one that A does not kill, is refused
    T = random_triangulation(20, seed=20)
    V = forms.horocycle_kernel(T)
    repeated = V.copy()
    repeated[:, -1] = V[:, 0]
    shifted = V.copy()
    shifted[0, 0] += 1
    for bad in (repeated, shifted):
        monkeypatch.setattr(forms, "horocycle_kernel", lambda _, bad=bad: bad)
        with pytest.raises(AssertionError, match="not an s-dimensional kernel"):
            forms.unbroken_rank_report(T)


def test_unbroken_rank_refuses_a_gram_matrix_past_its_limit(
    tmp_path, monkeypatch, capsys
):
    # valid input whose Gram matrix would pass the limit: one typed line
    # and exit 4, before anything E x E is allocated, and the document
    # with its other figures
    T = random_triangulation(20, seed=20)
    E = T.num_edges
    monkeypatch.setattr(forms, "MAX_GRAM_EDGES", E)
    assert forms.unbroken_rank_report(T).rank == E - T.num_punctures
    monkeypatch.setattr(forms, "MAX_GRAM_EDGES", E - 1)
    tracemalloc.start()
    try:
        with pytest.raises(MatrixTooLarge) as info:
            forms.unbroken_rank_report(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * E * E
    message = (
        f"unbroken Gram matrix of {E} edges needs {8 * E * E} bytes; "
        f"the limit is {E - 1} edges"
    )
    assert str(info.value) == message
    assert isinstance(info.value, NumericalBreakdown)
    err = f"MatrixTooLarge: {message}\n"
    assert_forms_keeps_its_other_figures(T, tmp_path / "tri.json", capsys, err)


@pytest.mark.parametrize("faces", [2, 20])
def test_constrained_tangent_on_random_surfaces(faces):
    T = random_triangulation(faces, seed=faces)
    H = samples.random_valid_structure(T, samples.rng(faces))
    report = forms.rank_report(T, H, constrained=True)
    s = T.num_punctures
    assert report.num_constraints == s - 1
    assert report.tangent_dim == 3 * faces - s + 1
    # a floor exactly when something is counted, never above the norm
    floor = report.singular_value_floor
    assert (floor is None) == (report.rank == 0)
    assert floor is None or 0.0 < floor <= forms._norm(forms.wp_form(T))


def assert_floor_is_dense(report, sv, norm):
    """Check a rank report against the descending singular values sv of
    its dense matrix: the floor is the smallest value counted, to 1e-12,
    the next is within the cutoff, and nothing counted means no floor.
    """
    rank = report.rank
    if rank:
        assert abs(report.singular_value_floor - sv[rank - 1]) <= 1e-12
    else:
        assert report.singular_value_floor is None
    if rank < len(sv):
        assert sv[rank] <= forms.RANK_CUTOFF * norm
    assert report.to_dict()["singular_value_floor"] == report.singular_value_floor


@pytest.mark.parametrize(
    "make", [samples.random_valid_structure, samples.random_unbroken],
    ids=["broken", "unbroken"],
)
def test_constrained_rank_matches_dense_oracle(table_surface, make):
    T = table_surface
    H = make(T, samples.rng(T.faces))
    assert not H.zero_gap.any()
    got = forms.rank_report(T, H, constrained=True)
    want = oracle_constrained_rank(T, H)
    assert got.num_constraints == want.num_constraints
    assert got.tangent_dim == want.tangent_dim == len(want.singular_values)
    assert got.rank == want.rank
    assert_floor_is_dense(got, want.singular_values, forms._norm(forms.wp_form(T)))
    if T.num_punctures == 1:
        # no constraint: the restriction is the form itself, to the bit
        assert got.num_constraints == 0
        whole = forms.rank_report(T)
        assert (got.rank, got.singular_value_floor) == (whole.rank, whole.singular_value_floor)


def test_constrained_rank_at_scale():
    # no dense 6000 x 6000 SVD at F = 2000.  The restriction
    # R = (I - N^T N) Omega (I - N^T N), for the orthonormal constraint
    # rows N, maps X = span(N, Omega N, M N), M the per-face mean, into
    # itself and is Omega on X's complement, where Omega keeps its blocks.
    # So R's values are those of R on X, from a pivoted QR basis of X,
    # then 2F - rank(Omega on X) norms and zeros; their squared sum is
    # R's squared Frobenius norm F |block|^2 - 2 |Omega N^T|^2 + |N Omega N^T|^2
    T = random_triangulation(2000, seed=1)
    H = samples.random_valid_structure(T, samples.rng(1))
    report = forms.rank_report(T, H, constrained=True)
    s = T.num_punctures
    assert report.num_constraints == s - 1
    assert report.tangent_dim == 3 * T.faces - s + 1
    assert report.rank % 2 == 0
    rows = np.linalg.svd(forms._holonomy_jacobian(H), full_matrices=False)[2][: s - 1]
    block = forms.wp_form(T).block
    norm = forms._norm(forms.wp_form(T))

    def omega(x):
        return (x.reshape(len(x), -1, 3) @ block.T).reshape(x.shape)

    means = np.repeat(rows.reshape(s - 1, -1, 3).mean(axis=2), 3, axis=1)
    q, r, _ = scipy.linalg.qr(np.vstack((rows, omega(rows), means)).T, pivoting=True, mode="economic")
    q = q[:, np.abs(np.diag(r)) > 1e-10 * abs(r[0, 0])].T
    on_x = q @ omega(q).T
    restricted = on_x - (q @ rows.T) @ (rows @ q.T) @ on_x
    restricted -= restricted @ (q @ rows.T) @ (rows @ q.T)
    full = 2 * T.faces - int(np.sum(np.linalg.svd(on_x, compute_uv=False) > 1e-8 * norm))
    sv = np.concatenate((
        np.full(full, norm),
        np.linalg.svd(restricted, compute_uv=False),
        np.zeros(3 * T.faces - full - len(q)),
    ))
    sv = np.sort(sv)[::-1][: report.tangent_dim]
    assert report.rank == forms._rank(sv, norm)
    assert_floor_is_dense(report, sv, norm)
    moved = omega(rows)
    want = T.faces * np.sum(block**2) - 2.0 * np.sum(moved**2) + np.sum((rows @ moved.T) ** 2)
    assert abs(np.sum(sv**2) - want) <= 1e-12 * want


def test_constrained_rank_rejects_another_gluing():
    small = random_triangulation(2, seed=0)
    large = random_triangulation(20, seed=0)
    with pytest.raises(ChartMismatch):
        H = samples.random_valid_structure(large, samples.rng(0))
        forms.rank_report(small, H, constrained=True)
    other = random_triangulation(20, seed=1)
    assert other.faces == large.faces
    assert not np.array_equal(other.partner, large.partner)
    H = samples.random_valid_structure(other, samples.rng(0))
    with pytest.raises(ChartMismatch):
        forms.rank_report(large, H, constrained=True)
    # an equal gluing built separately is the same chart
    twin = random_triangulation(20, seed=1)
    assert twin is not other
    assert forms.rank_report(twin, H, constrained=True).num_constraints == (
        other.num_punctures - 1
    )


def test_constrained_rank_of_vanishing_restriction():
    # genus 0, corner cycles of lengths 1, 4, 1: the wp form vanishes on
    # the holonomy level set, so the restriction is rounding noise only
    T = random_triangulation(2, seed=1)
    assert [len(c) for c in T.cycle_crossings] == [1, 4, 1]
    for seed in range(3):
        H = samples.random_valid_structure(T, samples.rng(seed))
        report = forms.rank_report(T, H, constrained=True)
        want = oracle_constrained_rank(T, H).singular_values
        assert max(want) <= 1e-12
        assert report.rank == 0 and report.to_dict()["singular_value_floor"] is None
        assert_floor_is_dense(report, want, forms._norm(forms.wp_form(T)))


def test_block_reports_match_dense_matrices():
    T = random_triangulation(20, seed=20)
    form = forms.wp_form(T)
    matrix = dense(form)
    norm = forms._norm(form)
    assert_floor_is_dense(forms.rank_report(T), np.linalg.svd(matrix, compute_uv=False), norm)
    gen = samples.rng(5)
    u = gen.standard_normal(60)
    v = gen.standard_normal(60)
    assert form.evaluate(u, v) == pytest.approx(u @ matrix @ v, rel=1e-12)

    # unbroken: the dense edge-equal basis B gives B^T M B
    basis = np.zeros((60, T.num_edges))
    for e, (p, q) in enumerate(T.edges):
        basis[3 * p[0] + p[1], e] = basis[3 * q[0] + q[1], e] = 1.0
    want = np.linalg.svd(basis.T @ matrix @ basis, compute_uv=False)
    assert np.allclose(oracle_gram_spectrum(T), want, atol=1e-12)
    report = forms.unbroken_rank_report(T)
    assert report.singular_value_floor < want[report.rank - 1]
    assert want[report.rank:].max() <= 1e-12

    # constrained: the null space from the Jacobian's full SVD
    H = samples.random_valid_structure(T, samples.rng(20))
    report = forms.rank_report(T, H, constrained=True)
    null = np.linalg.svd(forms._holonomy_jacobian(H))[2][report.num_constraints:].T
    want = np.linalg.svd(null.T @ matrix @ null, compute_uv=False)
    assert_floor_is_dense(report, want, norm)


def test_holonomy_jacobian_matches_central_differences():
    T = random_triangulation(20, seed=20)
    H = samples.random_valid_structure(T, samples.rng(3))
    step = 1e-6

    def log_holonomy(pair, factor):
        lam = H.lam.copy()
        lam[pair] *= factor
        moved = DecoratedBrokenHyperbolic(T, lam)
        phis = [moved.puncture_holonomy(i, "gap") for i in range(T.num_punctures)]
        return np.array(list(map(math.log, phis)))

    fd = np.column_stack([
        (log_holonomy(p, math.exp(step)) - log_holonomy(p, math.exp(-step)))
        / (2.0 * step)
        for p in T.pairs
    ])
    jac = forms._holonomy_jacobian(H)
    assert np.max(np.abs(jac - fd)) <= 1e-8 * np.max(np.abs(jac))


def test_holonomy_jacobian_rejects_degenerate_gap(torus):
    # a zero gap is valid decoration that leaves the Jacobian undefined
    H = DecoratedBrokenHyperbolic(torus, {p: math.sqrt(2.0) for p in torus.pairs})
    with pytest.raises(DegenerateEdge):
        forms.rank_report(torus, H, constrained=True)
    # a lambda below sqrt(2) is invalid, and named before any zero gap
    lam = H.lam.copy()
    lam[1, 2] = 1.0
    with pytest.raises(InvalidDecoration):
        forms.rank_report(torus, DecoratedBrokenHyperbolic(torus, lam), constrained=True)


def test_from_measure_takes_weights_down_to_minus_gap_floor(torus):
    w = np.ones((torus.faces, 3))
    w[0, 1] = -GAP_FLOOR
    assert forms.from_measure(BrokenMeasure(torus, w)).zero_gap[0, 1]
    w[0, 1] = -2.0 * GAP_FLOOR
    with pytest.raises(InvalidDecoration, match=r"at \(0, 1\) has no lambda"):
        forms.from_measure(BrokenMeasure(torus, w))


def test_random_valid_structure_is_the_inverse_chart_of_its_gaps():
    # the generator's lambdas come from from_measure, bit for bit
    T = random_triangulation(20, 4)
    gen = samples.rng(11)
    beta = gen.uniform(1.0, 1.9, size=T.num_edges)
    mu = gen.uniform(0.6, 1.7, size=T.faces)
    gaps = BrokenMeasure(T, mu[:, None] * beta[T.edge_index])
    H = samples.random_valid_structure(T, samples.rng(11))
    assert np.array_equal(H.lam, forms.from_measure(gaps).lam)
