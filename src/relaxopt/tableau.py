"""IMEX Butcher tableau pairs, adjoint-scheme coefficients, and the order checker.

A tableau pair combines an explicit method (strictly lower triangular matrix,
used for the transport term) with a diagonally implicit method (lower
triangular, used for the stiff source).  The adjoint time step reads either
the derived coefficient matrices (the ark form), which need every weight
nonzero, or the entries themselves (the xi form); the steppers build their
own coefficient plans from these arrays.  Whether the coupled forward/adjoint
system retains third order depends on extra algebraic conditions that
`check_order` evaluates alongside the standard ones.

The registry holds four named pairs, built once when the module is
imported; `builtin_tableau(name)` returns the registered object itself, so
every caller of one name shares one pair.  `load_tableau_file` reads any
other pair from a text file.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional

import numpy as np

ORDER_TOL = 1e-12


class ZeroWeightError(ValueError):
    """A weight vector entry is zero, so the adjoint coefficient matrices are undefined."""

    def __init__(self, which: str, index: int):
        self.which = which      # "w_tilde" or "w"
        self.index = index      # 0-based stage index
        super().__init__(
            f"{which}[{index}] = 0: adjoint coefficients are undefined; "
            "solve_adjoint falls back to the xi form"
        )


class TableauParseError(ValueError):
    """A tableau coefficient file could not be parsed; carries the 1-based line number."""

    def __init__(self, path: str, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def _frozen(x) -> np.ndarray:
    """A read-only float64 copy of x, which no later write to x or to the copy changes."""
    arr = np.array(x, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ImexTableau:
    """Explicit/implicit Butcher pair sharing one stage count.

    ImexTableau(name, a_tilde, a_impl, w_tilde, w) keeps read-only float64
    copies of the coefficients, so a later write to the caller's arrays
    changes no field, and a write into a field raises; the steppers' scaled
    plans, memoized per pair, rely on that.  a_tilde is strictly lower
    triangular (explicit), a_impl lower triangular with diagonal allowed
    (diagonally implicit).  The other fields are derived from the entries
    when the pair is built and are not constructor arguments: the stage
    count `s` = len(w_tilde), the abscissae `c_tilde` and `c`, the row sums
    of the respective matrices, and `adjoint_coeffs`, which is
    adjoint_coeffs(pair), or None when a weight is zero and its matrices are
    undefined; solve_adjoint then runs the xi form, which reads the entries
    themselves.
    A pair compares and hashes by identity, since its fields are arrays.
    """

    name: str
    a_tilde: np.ndarray
    a_impl: np.ndarray
    w_tilde: np.ndarray
    w: np.ndarray
    s: int = field(init=False)
    c_tilde: np.ndarray = field(init=False)
    c: np.ndarray = field(init=False)
    adjoint_coeffs: Optional[AdjointCoeffs] = field(init=False, repr=False)

    def __post_init__(self):
        s = len(self.w_tilde)
        for label, shape in (("a_tilde", (s, s)), ("a_impl", (s, s)),
                             ("w_tilde", (s,)), ("w", (s,))):
            arr = _frozen(getattr(self, label))
            if arr.shape != shape:
                raise ValueError(f"{label} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{label} has non-finite entries")
            object.__setattr__(self, label, arr)
        at, ai = self.a_tilde, self.a_impl
        if np.any(np.triu(at) != 0.0):
            raise ValueError("a_tilde must be strictly lower triangular")
        if np.any(np.triu(ai, 1) != 0.0):
            raise ValueError("a_impl must be lower triangular")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "c_tilde", _frozen(at.sum(axis=1)))
        object.__setattr__(self, "c", _frozen(ai.sum(axis=1)))
        try:
            coeffs = adjoint_coeffs(self)
        except ZeroWeightError:
            coeffs = None
        object.__setattr__(self, "adjoint_coeffs", coeffs)


@dataclass(frozen=True, eq=False)
class AdjointCoeffs:
    """Coefficient matrices of the adjoint time stepper derived from a tableau pair.

    alpha_tilde[i,j] = w_tilde[j] - (w_tilde[j]/w_tilde[i]) * a_tilde[j,i]
    alpha[i,j]       = w[j]       - (w[j]/w_tilde[i])       * a_tilde[j,i]
    beta_tilde[i,j]  = w_tilde[j] - (w_tilde[j]/w[i])       * a_impl[j,i]
    beta[i,j]        = w[j]       - (w[j]/w[i])             * a_impl[j,i]

    gamma/gamma_tilde are the row sums of alpha/alpha_tilde, derived in
    __post_init__ and not constructor arguments; they enter the third-order
    branch conditions.  Every field is a read-only float64 copy, as in
    ImexTableau.  The ark form of the adjoint step reads the matrices
    (adjoint._scaled_plan).
    The coefficients compare and hash by identity, since their fields are
    arrays.
    """

    alpha_tilde: np.ndarray
    alpha: np.ndarray
    beta_tilde: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray = field(init=False)
    gamma_tilde: np.ndarray = field(init=False)

    def __post_init__(self):
        for label in ("alpha_tilde", "alpha", "beta_tilde", "beta"):
            object.__setattr__(self, label, _frozen(getattr(self, label)))
        object.__setattr__(self, "gamma", _frozen(self.alpha.sum(axis=1)))
        object.__setattr__(self, "gamma_tilde", _frozen(self.alpha_tilde.sum(axis=1)))


def adjoint_coeffs(tab: ImexTableau) -> AdjointCoeffs:
    """Derive the adjoint coefficient matrices; every weight must be nonzero."""
    for which, vec in (("w_tilde", tab.w_tilde), ("w", tab.w)):
        zero = np.nonzero(vec == 0.0)[0]
        if zero.size:
            raise ZeroWeightError(which, int(zero[0]))
    wt, w = tab.w_tilde, tab.w
    at_t = tab.a_tilde.T          # at_t[i, j] = a_tilde[j, i]
    ai_t = tab.a_impl.T
    alpha_tilde = wt[None, :] - (wt[None, :] / wt[:, None]) * at_t
    alpha = w[None, :] - (w[None, :] / wt[:, None]) * at_t
    beta_tilde = wt[None, :] - (wt[None, :] / w[:, None]) * ai_t
    beta = w[None, :] - (w[None, :] / w[:, None]) * ai_t
    return AdjointCoeffs(alpha_tilde=alpha_tilde, alpha=alpha,
                         beta_tilde=beta_tilde, beta=beta)


@dataclass(frozen=True)
class OrderReport:
    """Outcome of the order checker.

    forward_order: largest k <= 3 whose standard additive conditions all hold.
    adjoint_system_order: order retained by the coupled forward/adjoint pair;
        equals forward_order for k <= 2, and requires one of the extra
        third-order condition branches for k = 3.
    condition_residuals: label -> |lhs - rhs| for every condition evaluated.
    branch_used: "gamma" / "coupling" / "both" when a third-order branch held,
        "none" when all failed, "unavailable" when zero weights prevented the
        evaluation, "inherited" when forward_order < 3 (no branch applies).
    """

    forward_order: int
    adjoint_system_order: int
    condition_residuals: Dict[str, float]
    branch_used: str


def order_condition_residuals(tab: ImexTableau) -> Dict[str, float]:
    """Residuals of the standard additive Runge-Kutta conditions up to order 3.

    Order 1: each weight vector sums to 1.  Order 2: each weight vector against
    each abscissa family gives 1/2.  Order 3: the quadratic abscissa products
    give 1/3 and the matrix-weighted abscissae give 1/6, across all explicit/
    implicit combinations.
    """
    res = {}
    res["order1: sum(w_tilde)"] = abs(tab.w_tilde.sum() - 1.0)
    res["order1: sum(w)"] = abs(tab.w.sum() - 1.0)
    weights = (("w_tilde", tab.w_tilde), ("w", tab.w))
    nodes = (("c_tilde", tab.c_tilde), ("c", tab.c))
    for wn, wv in weights:
        for cn, cv in nodes:
            res[f"order2: {wn}.{cn}"] = abs(float(wv @ cv) - 0.5)
    for wn, wv in weights:
        for (n1, c1), (n2, c2) in ((("c_tilde", tab.c_tilde), ("c_tilde", tab.c_tilde)),
                                   (("c_tilde", tab.c_tilde), ("c", tab.c)),
                                   (("c", tab.c), ("c", tab.c))):
            res[f"order3: {wn}.{n1}*{n2}"] = abs(float(wv @ (c1 * c2)) - 1.0 / 3.0)
        for mn, mv in (("a_tilde", tab.a_tilde), ("a_impl", tab.a_impl)):
            for cn, cv in nodes:
                res[f"order3: {wn}.{mn}.{cn}"] = abs(float(wv @ (mv @ cv)) - 1.0 / 6.0)
    return res


def _branch_residuals(tab: ImexTableau, coeffs: AdjointCoeffs) -> Dict[str, float]:
    """Residuals of the two third-order branches for the coupled system.

    gamma branch: w.gamma^2, w.gamma_tilde^2 and the mixed product all equal 1/3.
    coupling branch: the row-sum-collapsed sums w.c.gamma and
    w.c_tilde.gamma_tilde equal 1/6, plus at least one of the two cross terms.
    """
    w, ct, c = tab.w, tab.c_tilde, tab.c
    g, gt = coeffs.gamma, coeffs.gamma_tilde
    return {
        "branch-gamma: w.gamma^2": abs(float(w @ (g * g)) - 1.0 / 3.0),
        "branch-gamma: w.gamma_tilde^2": abs(float(w @ (gt * gt)) - 1.0 / 3.0),
        "branch-gamma: w.gamma*gamma_tilde": abs(float(w @ (g * gt)) - 1.0 / 3.0),
        "branch-coupling: w.c.gamma": abs(float(w @ (c * g)) - 1.0 / 6.0),
        "branch-coupling: w.c_tilde.gamma_tilde": abs(float(w @ (ct * gt)) - 1.0 / 6.0),
        "branch-coupling: w.c.gamma_tilde": abs(float(w @ (c * gt)) - 1.0 / 6.0),
        "branch-coupling: w.c_tilde.gamma": abs(float(w @ (ct * g)) - 1.0 / 6.0),
    }


def check_order(tab: ImexTableau) -> OrderReport:
    """Evaluate the order conditions and classify the tableau pair.

    forward_order is monotone: order k is only claimed when every condition of
    order <= k is at most ORDER_TOL.  For forward order 3 the coupled
    forward/adjoint system keeps order 3 only if one of the extra condition
    branches holds; without coefficient matrices (tab.adjoint_coeffs is None
    for zero-weight tableaus) that question cannot be decided and the coupled
    order is reported as 2.
    """
    res = order_condition_residuals(tab)
    forward = 0
    for k in (1, 2, 3):
        if all(v <= ORDER_TOL for key, v in res.items() if key.startswith(f"order{k}")):
            forward = k
        else:
            break

    coeffs = tab.adjoint_coeffs
    branch_used = "inherited"
    adjoint_order = forward
    if forward == 3:
        if coeffs is None:
            branch_used = "unavailable"
            adjoint_order = 2
        else:
            bres = _branch_residuals(tab, coeffs)
            res.update(bres)
            gamma_ok = all(bres[k] <= ORDER_TOL for k in bres if k.startswith("branch-gamma"))
            coupling_ok = (bres["branch-coupling: w.c.gamma"] <= ORDER_TOL
                           and bres["branch-coupling: w.c_tilde.gamma_tilde"] <= ORDER_TOL
                           and (bres["branch-coupling: w.c.gamma_tilde"] <= ORDER_TOL
                                or bres["branch-coupling: w.c_tilde.gamma"] <= ORDER_TOL))
            if gamma_ok and coupling_ok:
                branch_used = "both"
            elif gamma_ok:
                branch_used = "gamma"
            elif coupling_ok:
                branch_used = "coupling"
            else:
                branch_used = "none"
                adjoint_order = 2
    return OrderReport(forward_order=forward, adjoint_system_order=adjoint_order,
                       condition_residuals=res, branch_used=branch_used)


# ----------------------------------------------------------------- registry

_SQRT2 = float(np.sqrt(2.0))
_G222 = 1.0 - 1.0 / _SQRT2

# The registered pairs, each built once.  A pair is frozen and its arrays are
# read-only, so every lookup shares it, and the steppers' plan memos, keyed by
# the pair, keep serving it.  tests/test_tableau.py pins each pair's order.
_REGISTRY = {tab.name: tab for tab in (
    # Explicit Euler for transport, implicit Euler for the source.
    ImexTableau("imex-euler", [[0.0]], [[1.0]], [1.0], [1.0]),
    # Two-stage second-order pair with all weights nonzero, so the adjoint
    # coefficient matrices exist (gamma = 1 - 1/sqrt(2) on the implicit diagonal).
    ImexTableau("ars-222",
                [[0.0, 0.0], [1.0, 0.0]],
                [[_G222, 0.0], [1.0 - 2.0 * _G222, _G222]],
                [0.5, 0.5],
                [0.5, 0.5]),
    # Five-stage (one padding stage) third-order pair; several weights are
    # zero, which exercises the xi-form adjoint fallback.
    ImexTableau("ars-443",
                [[0, 0, 0, 0, 0],
                 [1 / 2, 0, 0, 0, 0],
                 [11 / 18, 1 / 18, 0, 0, 0],
                 [5 / 6, -5 / 6, 1 / 2, 0, 0],
                 [1 / 4, 7 / 4, 3 / 4, -7 / 4, 0]],
                [[0, 0, 0, 0, 0],
                 [0, 1 / 2, 0, 0, 0],
                 [0, 1 / 6, 1 / 2, 0, 0],
                 [0, -1 / 2, 1 / 2, 1 / 2, 0],
                 [0, 3 / 2, -3 / 2, 1 / 2, 1 / 2]],
                [1 / 4, 7 / 4, 3 / 4, -7 / 4, 0],
                [0, 3 / 2, -3 / 2, 1 / 2, 1 / 2]),
    # Three-stage third-order pair with all weights nonzero; passes the
    # gamma branch of the coupled-system third-order conditions.
    ImexTableau("bpr-343",
                [[0, 0, 0], [1 / 2, 0, 0], [-1.0, 2.0, 0]],
                [[0, 0, 0], [1 / 4, 1 / 4, 0], [1 / 4, 1 / 2, 1 / 4]],
                [1 / 6, 2 / 3, 1 / 6],
                [1 / 6, 2 / 3, 1 / 6]),
)}


def builtin_names() -> list:
    return sorted(_REGISTRY)


def builtin_tableau(name: str) -> ImexTableau:
    """The registered pair `name`, the same object on every call."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown tableau '{name}'; available: {', '.join(builtin_names())}"
        ) from None


# ----------------------------------------------------------- file loading

def _parse_number(token: str, path: str, line_no: int) -> float:
    """Parse a decimal or rational p/q token exactly via Fraction."""
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError):
        raise TableauParseError(path, line_no, f"cannot parse number {token!r}") from None


def load_tableau_file(path: str) -> ImexTableau:
    """Read a tableau pair, named after the file's base name, from a line-oriented text file.

    Format: blank lines and '#' comments are skipped; the first significant
    line holds the stage count s; then s rows of the explicit matrix, s rows
    of the implicit matrix, one row of explicit weights, one row of implicit
    weights.  Entries are decimals or rationals like 7/4, parsed exactly.
    """
    rows = []  # (line_no, tokens)
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                rows.append((line_no, text.split()))

    if not rows:
        raise TableauParseError(path, 1, "empty file")
    line_no, tokens = rows[0]
    if len(tokens) != 1:
        raise TableauParseError(path, line_no, "expected a single stage count")
    try:
        s = int(tokens[0])
    except ValueError:
        raise TableauParseError(path, line_no, f"stage count {tokens[0]!r} is not an integer") from None
    if s < 1:
        raise TableauParseError(path, line_no, f"stage count must be >= 1, got {s}")

    need = 2 * s + 2
    body = rows[1:]
    if len(body) != need:
        where = body[-1][0] if body else line_no
        raise TableauParseError(path, where,
                                f"expected {need} coefficient rows for s={s}, found {len(body)}")

    def parse_row(entry, expected_len, label):
        ln, toks = entry
        if len(toks) != expected_len:
            raise TableauParseError(path, ln,
                                    f"{label}: expected {expected_len} entries, found {len(toks)}")
        return [_parse_number(tk, path, ln) for tk in toks]

    a_tilde = [parse_row(body[i], s, f"explicit row {i + 1}") for i in range(s)]
    a_impl = [parse_row(body[s + i], s, f"implicit row {i + 1}") for i in range(s)]
    w_tilde = parse_row(body[2 * s], s, "explicit weights")
    w = parse_row(body[2 * s + 1], s, "implicit weights")

    name = os.path.splitext(os.path.basename(path))[0]
    try:
        return ImexTableau(name, a_tilde, a_impl, w_tilde, w)
    except ValueError as exc:
        raise TableauParseError(path, rows[0][0], str(exc)) from None
