import dataclasses

import numpy as np
import pytest

from relaxopt import adjoint, forward
from relaxopt.tableau import (ORDER_TOL, AdjointCoeffs, ImexTableau, TableauParseError,
                              ZeroWeightError, adjoint_coeffs, builtin_names, builtin_tableau,
                              check_order, load_tableau_file, order_condition_residuals)

from oracles import random_pair


def test_imex_euler_adjoint_coeffs_by_substitution():
    # s=1, explicit entry 0, implicit entry 1, both weights 1:
    # alpha_tilde = 1 - (1/1)*0 = 1, alpha = 1, beta_tilde = 1 - (1/1)*1 = 0, beta = 0
    cf = adjoint_coeffs(builtin_tableau("imex-euler"))
    assert cf.alpha_tilde[0, 0] == 1.0
    assert cf.alpha[0, 0] == 1.0
    assert cf.beta_tilde[0, 0] == 0.0
    assert cf.beta[0, 0] == 0.0


def test_row_sums_match_bit_for_bit():
    for name in builtin_names():
        tab = builtin_tableau(name)
        try:
            cf = adjoint_coeffs(tab)
        except ZeroWeightError:
            continue
        assert np.array_equal(cf.gamma, cf.alpha.sum(axis=1))
        assert np.array_equal(cf.gamma_tilde, cf.alpha_tilde.sum(axis=1))


def test_adjoint_coeffs_formula_against_loop_oracle():
    tab = builtin_tableau("ars-222")
    cf = adjoint_coeffs(tab)
    s = tab.s
    for i in range(s):
        for j in range(s):
            wt, w, at, ai = tab.w_tilde, tab.w, tab.a_tilde, tab.a_impl
            assert cf.alpha_tilde[i, j] == pytest.approx(wt[j] - (wt[j] / wt[i]) * at[j, i], abs=1e-16)
            assert cf.alpha[i, j] == pytest.approx(w[j] - (w[j] / wt[i]) * at[j, i], abs=1e-16)
            assert cf.beta_tilde[i, j] == pytest.approx(wt[j] - (wt[j] / w[i]) * ai[j, i], abs=1e-16)
            assert cf.beta[i, j] == pytest.approx(w[j] - (w[j] / w[i]) * ai[j, i], abs=1e-16)


def test_zero_weight_raises_with_index():
    tab = ImexTableau("zw", [[0, 0], [1, 0]], [[0.5, 0], [0, 0.5]],
                      [1.0, 0.0], [0.5, 0.5])
    with pytest.raises(ZeroWeightError) as exc:
        adjoint_coeffs(tab)
    assert exc.value.which == "w_tilde"
    assert exc.value.index == 1
    assert "w_tilde[1]" in str(exc.value)


def test_check_order_imex_euler():
    rep = check_order(builtin_tableau("imex-euler"))
    assert rep.forward_order == 1
    assert rep.adjoint_system_order == 1
    assert rep.branch_used == "inherited"


def test_check_order_ars_222():
    tab = builtin_tableau("ars-222")
    rep = check_order(tab)
    assert rep.forward_order == 2
    assert rep.adjoint_system_order == 2
    # spot-check the residuals against direct evaluation
    assert abs(tab.w.sum() - 1.0) <= 1e-14
    assert abs(float(tab.w @ tab.c) - 0.5) <= 1e-14
    assert rep.condition_residuals["order1: sum(w)"] <= 1e-14
    assert rep.condition_residuals["order2: w.c"] <= 1e-14


def test_check_order_ars_443_forward_three_adjoint_two():
    rep = check_order(builtin_tableau("ars-443"))
    assert rep.forward_order == 3
    assert rep.adjoint_system_order == 2
    assert rep.branch_used == "unavailable"
    worst = max(v for k, v in rep.condition_residuals.items() if k.startswith("order"))
    assert worst <= ORDER_TOL


def test_check_order_bpr_343_passes_gamma_branch():
    rep = check_order(builtin_tableau("bpr-343"))
    assert rep.forward_order == 3
    assert rep.adjoint_system_order == 3
    assert rep.branch_used == "gamma"
    for key in ("branch-gamma: w.gamma^2", "branch-gamma: w.gamma_tilde^2",
                "branch-gamma: w.gamma*gamma_tilde"):
        assert rep.condition_residuals[key] <= ORDER_TOL


def test_third_order_tableau_failing_all_branches_reports_two():
    # third-order pair built on a different explicit method; all weights
    # nonzero but neither extra branch holds
    tab = ImexTableau(
        "contrast3",
        [[0, 0, 0], [0.5, 0, 0], [0, 0.75, 0]],
        [[0, 0, 0], [0.25, 0.25, 0], [5 / 16, 3 / 16, 0.25]],
        [2 / 9, 1 / 3, 4 / 9],
        [2 / 9, 1 / 3, 4 / 9])
    rep = check_order(tab)
    assert rep.forward_order == 3
    assert rep.adjoint_system_order == 2
    assert rep.branch_used == "none"
    branch_res = [v for k, v in rep.condition_residuals.items() if k.startswith("branch")]
    assert max(branch_res) > 1e-3  # genuinely violated, not borderline


def test_check_order_is_monotone():
    for name in builtin_names():
        rep = check_order(builtin_tableau(name))
        k = rep.forward_order
        for lower in range(1, k + 1):
            worst = max(v for key, v in rep.condition_residuals.items()
                        if key.startswith(f"order{lower}"))
            assert worst <= ORDER_TOL


def test_weights_sum_to_one_all_builtins():
    for name in builtin_names():
        tab = builtin_tableau(name)
        assert abs(tab.w.sum() - 1.0) <= 1e-14
        assert abs(tab.w_tilde.sum() - 1.0) <= 1e-14


def test_abscissae_are_row_sums_bit_for_bit():
    for name in builtin_names():
        tab = builtin_tableau(name)
        assert np.array_equal(tab.c_tilde, tab.a_tilde.sum(axis=1))
        assert np.array_equal(tab.c, tab.a_impl.sum(axis=1))


def test_perturbed_tableau_rejected_at_nominal_order():
    base = builtin_tableau("ars-222")
    a_impl = base.a_impl.copy()
    a_impl[1, 0] += 1e-3
    perturbed = ImexTableau("ars-222-perturbed", base.a_tilde, a_impl,
                            base.w_tilde, base.w)
    rep = check_order(perturbed)
    assert rep.forward_order < 2


def test_unknown_name_lists_registry():
    with pytest.raises(ValueError) as exc:
        builtin_tableau("nope")
    msg = str(exc.value)
    for name in builtin_names():
        assert name in msg


def test_tableau_structure_validation():
    with pytest.raises(ValueError):
        # explicit matrix with a diagonal entry
        ImexTableau("bad", [[0.5]], [[1.0]], [1.0], [1.0])
    with pytest.raises(ValueError):
        # implicit matrix with an upper entry
        ImexTableau("bad", [[0, 0], [1, 0]], [[0, 1], [0, 0.5]],
                    [0.5, 0.5], [0.5, 0.5])


def test_load_tableau_file_round_trip(tmp_path):
    path = tmp_path / "pair.tab"
    path.write_text(
        "# a 2-stage pair with rational entries\n"
        "2\n"
        "\n"
        "0 0\n"
        "1 0\n"
        "0.2928932188134524755991556378951510 0\n"
        "0.4142135623730950488016887242096981 0.2928932188134524755991556378951510\n"
        "1/2 1/2\n"
        "1/2 1/2   # implicit weights\n")
    tab = load_tableau_file(str(path))
    ref = builtin_tableau("ars-222")
    assert tab.name == "pair"
    assert np.allclose(tab.a_impl, ref.a_impl, atol=1e-15, rtol=0.0)
    assert np.array_equal(tab.w, ref.w)
    assert check_order(tab).forward_order == 2


def test_load_tableau_file_rational_parsing(tmp_path):
    path = tmp_path / "thirds.tab"
    path.write_text("1\n0\n1/3\n1\n1\n")
    tab = load_tableau_file(str(path))
    assert tab.a_impl[0, 0] == float(1.0 / 3.0)


def test_load_tableau_file_bad_token_reports_line(tmp_path):
    path = tmp_path / "corrupt.tab"
    path.write_text("2\n0 0\n1 0\n0.5 0\nzzz 0.5\n1/2 1/2\n1/2 1/2\n")
    with pytest.raises(TableauParseError) as exc:
        load_tableau_file(str(path))
    assert exc.value.line_no == 5
    assert ":5:" in str(exc.value)


def test_load_tableau_file_wrong_row_count(tmp_path):
    path = tmp_path / "short.tab"
    path.write_text("2\n0 0\n1 0\n0.5 0\n")
    with pytest.raises(TableauParseError):
        load_tableau_file(str(path))


def test_load_tableau_file_row_length_mismatch(tmp_path):
    path = tmp_path / "ragged.tab"
    path.write_text("2\n0 0\n1 0 0\n0.5 0\n0 0.5\n1/2 1/2\n1/2 1/2\n")
    with pytest.raises(TableauParseError) as exc:
        load_tableau_file(str(path))
    assert exc.value.line_no == 3


def _plan_pairs(rng_seed=11, count=30):
    """The registered pairs, then random pairs with zero weights and with zero entries."""
    rng = np.random.default_rng(rng_seed)
    tabs = [builtin_tableau(n) for n in builtin_names()]
    tabs += [random_pair(rng) for _ in range(count)]
    tabs += [random_pair(rng, zero_weights=False) for _ in range(count)]
    return tabs


def _values(plan):
    """A scaled plan with each constant, a read-only 0-d float64 array, as its Python float."""
    if isinstance(plan, np.ndarray):
        assert plan.shape == () and plan.dtype == np.float64 and not plan.flags.writeable
        return float(plan)
    if isinstance(plan, tuple):
        return tuple(_values(x) for x in plan)
    return plan


def _forward_plan(tab):
    """The forward step plan at eps = h = 1, where each term holds -a_tilde and a_impl exactly."""
    return _values(forward._scaled_plan(tab, 1.0, 1.0))


def _adjoint_plan(form, tab):
    """The adjoint step plan's rows at eps = h = 1, where a term holds -cf, or (cf, -cf)."""
    eps, rows = _values(adjoint._scaled_plan(form, tab, 1.0, 1.0))
    assert eps == 1.0
    return rows


def test_step_plan_holds_the_nonzero_entries_in_stage_order():
    for tab in _plan_pairs():
        s = tab.s
        plan = _forward_plan(tab)
        assert len(plan) == s + 1
        at, ai = np.zeros((s, s)), np.zeros((s, s))
        for i, (terms, denom, diag) in enumerate(plan[:s]):
            assert [j for j, _, _ in terms] == sorted({j for j, _, _ in terms})
            for j, neg_ct, ci in terms:
                assert 0 <= j < i and (neg_ct is not None or ci is not None)
                at[i, j] = 0.0 if neg_ct is None else -neg_ct
                ai[i, j] = 0.0 if ci is None else ci
            assert diag == tab.a_impl[i, i] and denom == 1.0 + tab.a_impl[i, i]
            ai[i, i] = diag
        assert np.array_equal(at, tab.a_tilde) and np.array_equal(ai, tab.a_impl), tab
        terms, denom, diag = plan[s]
        assert denom is None and diag is None
        wt, w = np.zeros(s), np.zeros(s)
        assert [j for j, _, _ in terms] == sorted({j for j, _, _ in terms})
        for j, neg_cwt, cw in terms:
            assert neg_cwt is not None or cw is not None
            wt[j] = 0.0 if neg_cwt is None else -neg_cwt
            w[j] = 0.0 if cw is None else cw
        assert np.array_equal(wt, tab.w_tilde) and np.array_equal(w, tab.w), tab


def test_step_plan_skips_negative_zero_entries():
    # -0.0 counts as zero; a term kept for its partner holds None for its own zero
    tab = ImexTableau("signed-zero", [[0.0, 0.0], [-0.0, 0.0]],
                      [[0.5, 0.0], [-0.0, 0.5]], [-0.0, 1.0], [0.5, 0.5])
    plan = _forward_plan(tab)
    assert plan[1] == ((), 1.5, 0.5)
    assert plan[2] == (((0, None, 0.5), (1, -1.0, 0.5)), None, None)
    rows = _adjoint_plan("xi", tab)
    assert [row[3:6] for row in rows[:2]] == [((), ((1, -0.5),), ()), ((), ((0, -0.5),), ())]


def _coupled(js, first, second):
    """The coupled terms at h = 1 for the j in js where either coefficient is nonzero."""
    return tuple((j, -float(first[j]) if first[j] != 0.0 else None,
                  (float(second[j]), -float(second[j])) if second[j] != 0.0 else None)
                 for j in js if first[j] != 0.0 or second[j] != 0.0)


def _negated(js, values):
    return tuple((j, -float(values[j])) for j in js if values[j] != 0.0)


def _start(c):
    return None if c == 1.0 else float(c)


def test_ark_plan_holds_the_nonzero_coefficient_differences():
    checked = 0
    for tab in _plan_pairs():
        try:
            cf = adjoint_coeffs(tab)
        except ZeroWeightError:
            continue
        checked += 1
        s, wt, w = tab.s, tab.w_tilde, tab.w
        want = []
        for i in reversed(range(s)):
            want.append((i, None, None,
                         _coupled(range(i + 1, s), wt - cf.alpha_tilde[i], w - cf.alpha[i]),
                         _negated(range(i, s), wt - cf.beta_tilde[i]),
                         _negated(range(i + 1, s), w - cf.beta[i]),
                         1.0 + tab.a_impl[i, i]))
        want.append((None, None, None, _coupled(range(s), wt, w), (), (), None))
        assert _adjoint_plan("ark", tab) == tuple(want), tab
    assert checked >= 30


def test_xi_plan_holds_the_pair_entries_for_any_weights():
    zero_weights = 0
    for tab in _plan_pairs():
        zero_weights += tab.adjoint_coeffs is None
        s, at, ai = tab.s, tab.a_tilde, tab.a_impl
        want = []
        for i in reversed(range(s)):
            want.append((i, _start(tab.w_tilde[i]), _start(tab.w[i]),
                         _coupled(range(i + 1, s), at[:, i], at[:, i]),
                         _negated(range(i, s), ai[:, i]), _negated(range(i + 1, s), ai[:, i]),
                         1.0 + ai[i, i]))
        want.append((None, None, None, _coupled(range(s), np.ones(s), np.ones(s)), (), (), None))
        assert _adjoint_plan("xi", tab) == tuple(want), tab
    assert zero_weights >= 20


def test_plans_stay_out_of_repr_and_follow_replace():
    # the pair holds no plan: the steppers build theirs from its arrays, so a
    # plan follows every replaced entry
    tab = builtin_tableau("ars-222")
    assert [f.name for f in dataclasses.fields(ImexTableau)] == [
        "name", "a_tilde", "a_impl", "w_tilde", "w", "s", "c_tilde", "c", "adjoint_coeffs"]
    assert [f.name for f in dataclasses.fields(AdjointCoeffs)] == [
        "alpha_tilde", "alpha", "beta_tilde", "beta", "gamma", "gamma_tilde"]
    assert "plan" not in repr(tab)
    assert "plan" not in repr(adjoint_coeffs(tab))
    renamed = dataclasses.replace(tab, name="renamed")
    assert _forward_plan(renamed) == _forward_plan(tab)
    assert _adjoint_plan("xi", renamed) == _adjoint_plan("xi", tab)
    reweighted = dataclasses.replace(tab, w=np.array([0.25, 0.75]))
    assert _forward_plan(reweighted)[2] == (((0, -0.5, 0.25), (1, -0.5, 0.75)), None, None)
    assert _forward_plan(reweighted)[:2] == _forward_plan(tab)[:2]
    xi, reweighted_xi = _adjoint_plan("xi", tab), _adjoint_plan("xi", reweighted)
    assert [row[:3] for row in reweighted_xi[:2]] == [(1, 0.5, 0.75), (0, 0.5, 0.25)]
    assert [row[3:] for row in reweighted_xi] == [row[3:] for row in xi]
    assert _adjoint_plan("ark", reweighted) == _adjoint_plan(
        "ark", ImexTableau("want", tab.a_tilde, tab.a_impl, tab.w_tilde, [0.25, 0.75]))
    assert _adjoint_plan("ark", reweighted) != _adjoint_plan("ark", tab)
    for derived in ("s", "c_tilde", "c"):
        with pytest.raises(ValueError):
            dataclasses.replace(tab, **{derived: getattr(tab, derived)})
    a_impl = np.array([[0.25, 0.0], [0.5, 0.25]])
    reimplicit = dataclasses.replace(tab, a_impl=a_impl)
    assert np.array_equal(reimplicit.c, np.array([0.25, 0.75]))
    assert np.array_equal(reimplicit.c_tilde, tab.c_tilde)
    want = ImexTableau("want", tab.a_tilde, a_impl, tab.w_tilde, tab.w)
    assert _forward_plan(reimplicit) == _forward_plan(want)
    assert _forward_plan(reimplicit)[:2] == (((), 1.25, 0.25), (((0, -1.0, 0.5),), 1.25, 0.25))
    assert _adjoint_plan("xi", reimplicit) == _adjoint_plan("xi", want)
    assert _adjoint_plan("xi", reimplicit) != xi
    assert _adjoint_plan("ark", reimplicit) == _adjoint_plan("ark", want)
    assert _adjoint_plan("ark", reimplicit) != _adjoint_plan("ark", tab)


def test_pair_keeps_its_adjoint_coeffs():
    # derived once with the pair, equal to adjoint_coeffs(pair) bit for bit,
    # and None exactly where a zero weight leaves the matrices undefined
    with_coeffs = 0
    for tab in _plan_pairs():
        try:
            want = adjoint_coeffs(tab)
        except ZeroWeightError:
            assert tab.adjoint_coeffs is None, tab
            continue
        with_coeffs += 1
        got = tab.adjoint_coeffs
        for name in ("alpha_tilde", "alpha", "beta_tilde", "beta", "gamma", "gamma_tilde"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (tab, name)
    assert 30 <= with_coeffs < len(_plan_pairs())
    tab = builtin_tableau("ars-222")
    assert "adjoint_coeffs" not in repr(tab)
    reweighted = dataclasses.replace(tab, w=np.array([0.25, 0.75]))
    assert np.array_equal(reweighted.adjoint_coeffs.beta, adjoint_coeffs(reweighted).beta)
    assert dataclasses.replace(tab, w=np.array([1.0, 0.0])).adjoint_coeffs is None
    with pytest.raises(ValueError):
        dataclasses.replace(tab, adjoint_coeffs=tab.adjoint_coeffs)


def test_pairs_and_adjoint_coeffs_compare_and_hash_by_identity():
    # their fields are arrays, so a field-wise == would ask numpy for the truth
    # value of an elementwise comparison
    tab, again = builtin_tableau("ars-222"), builtin_tableau("ars-222")
    assert tab == tab and tab != again
    assert tab.adjoint_coeffs == tab.adjoint_coeffs
    assert tab.adjoint_coeffs != again.adjoint_coeffs
    assert len({tab, again, tab}) == 2
    assert len({tab.adjoint_coeffs, again.adjoint_coeffs}) == 2
    assert dataclasses.replace(tab, name="copy") != tab


def test_pair_owns_read_only_copies_of_its_arrays():
    # the memoized step plans rest on this: no write to the caller's arrays
    # reaches a pair, and no field of a pair can be written
    at = np.array([[0.0, 0.0], [1.0, 0.0]])
    ai = np.array([[0.5, 0.0], [0.5, 0.5]])
    wt, w = np.array([0.5, 0.5]), np.array([0.5, 0.5])
    tab = ImexTableau("copied", at, ai, wt, w)
    want = {name: getattr(tab, name).copy() for name in ("a_tilde", "a_impl", "w_tilde", "w",
                                                         "c_tilde", "c")}
    coeffs = {name: getattr(tab.adjoint_coeffs, name).copy()
              for name in ("alpha_tilde", "alpha", "beta_tilde", "beta", "gamma", "gamma_tilde")}
    at[1, 0] = 7.0
    ai[1, 1] = 7.0
    wt[0] = w[0] = 7.0
    for name, arr in want.items():
        assert np.array_equal(getattr(tab, name), arr), name
    for name, arr in coeffs.items():
        assert np.array_equal(getattr(tab.adjoint_coeffs, name), arr), name
    for name in want:
        with pytest.raises(ValueError, match="read-only"):
            getattr(tab, name)[0] = 1.0
    for name in coeffs:
        with pytest.raises(ValueError, match="read-only"):
            getattr(tab.adjoint_coeffs, name)[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        tab.a_tilde[1, 0] = 7.0
    # AdjointCoeffs built directly copies its matrices too
    alpha = np.eye(2)
    direct = AdjointCoeffs(alpha_tilde=alpha, alpha=alpha, beta_tilde=alpha, beta=alpha)
    alpha[0, 0] = 3.0
    assert direct.alpha[0, 0] == 1.0 and direct.gamma[0] == 1.0
