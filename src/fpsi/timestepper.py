"""Implicit time integration of the coupled block system.

Two one-step schemes are provided.  ``euler`` evaluates every operator at
the new time level; ``midpoint`` evaluates the stiffness-type terms and the
loads at the half step (the discrete time derivative is the same difference
quotient in both cases).  Both schemes enforce the incompressibility
constraint at the new time level, so every accepted state after the initial
one satisfies ``Gdiv alpha = 0`` to solver precision; for the midpoint rule
the stored multiplier is the stage multiplier.

Each step solves the nonlinear system with an exact-Jacobian Newton
iteration.  The linear part of the five block rows is one table of terms,
each a stored form times its coefficient applied to the difference
quotient, the stage or the new level of one unknown, that the residual,
the Newton matrix and the row scales read.  Convergence is measured in the
infinity norm of every block row divided by the largest diagonal entry of
its own unknown's terms (the constraint row by max |Gdiv|), so the
tolerance is meaningful across parameter regimes and mesh sizes.

The structure displacement enters the Newton system only through the
kinematic row, an identity block, and the structure row, so each correction
eliminates it exactly (Benzi, Golub & Liesen 2005) and recovers it by one
axpy.  A :class:`NewtonSolver`, built once per trajectory, factors the
condensed matrix with sparse LU only on its first correction and keeps the
matrix it factored; the factor right-preconditions one GMRES(30) cycle per
correction, one LU solve per iteration, with the matrix applied as the
factored one plus the convection Jacobian of the velocity change since it
was built, exact because the convection term is trilinear.  Unless the
cycle's estimate and the correction's true residual both fall below 1e-12
relative (an exact Newton method), the current matrix is factored and
becomes the new preconditioner (Saad 2003, 9.3; Knoll & Keyes 2004).

The factor is only a preconditioner, so it is made in single precision, in
a geometric nested-dissection order computed once per trajectory (George
1973), each part's separator the lighter side of its median cut: the left
or the right points coupled across it, whichever hold fewer unknowns.
GMRES, the residuals and the states stay in double.  A fresh factor
preconditions the same GMRES cycle, applied with the matrix it was made
from (GMRES-IR, Carson & Higham 2017), so every LU solve is one GMRES
iteration; a fresh factor whose cycle misses the 1e-12 test is a
:class:`StepError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import StateVector, assemble_loads, sparse_sum

SCHEMES = ("euler", "midpoint")

# one GMRES cycle per Newton correction; a cycle that does not reach the
# tolerance triggers a fresh factorisation
GMRES_RESTART = 30
GMRES_RTOL = 1e-12
# nested dissection stops cutting a part of at most this many unknowns
LEAF_SIZE = 32


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping configuration."""

    scheme: str = "euler"
    dt: float = 0.01
    t_final: float = 1.0
    newton_tol: float = 1e-10
    newton_max: int = 25

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError("unknown scheme %r; expected one of %s"
                             % (self.scheme, ", ".join(SCHEMES)))
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_final <= 0.0:
            raise ValueError("t_final must be positive")
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        if self.newton_max < 1:
            raise ValueError("newton_max must be at least 1")

    def n_steps(self):
        n = int(round(self.t_final / self.dt))
        if n < 1 or abs(n * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError("t_final must be an integer multiple of dt")
        return n


class StepError(RuntimeError):
    """Raised when the Newton iteration fails to converge."""

    def __init__(self, message, residual_norm, iterations):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


@dataclass
class StepDiagnostics:
    """Newton convergence record for one time step, with the load work
    ``(a, b, c) . stage`` and the convection power ``stage.alpha . N`` at
    the stage of the accepted state, the terms of the energy identity that
    need the loads or the convection vector.  ``factor_fill`` sums the
    stored entries (``lu.nnz``) of the factors the step made, 0 if none."""

    t: float
    iterations: int
    residual_norms: list
    work: float
    convection_power: float
    krylov_iterations: int = 0
    factorizations: int = 0
    factor_fill: int = 0


@dataclass
class RunRecord:
    """What :func:`run` keeps of a trajectory: the final state and the
    diagnostics of every step."""

    state: StateVector
    diagnostics: list


def _unpack(blocks, z):
    """Views of the (alpha, beta, gamma, theta, pi) blocks of ``z``."""
    nb = blocks.n_beta
    return np.split(z, np.cumsum([blocks.n_alpha, nb, blocks.n_gamma, nb]))


def _pack(state):
    return np.concatenate([state.alpha, state.beta, state.gamma,
                           state.theta, state.pi])


def _linear_terms(blocks):
    """The linear terms of the rows (momentum, kinematic, Darcy, structure,
    constraint) on (alpha, beta, gamma, theta, pi): ``(row, column, coef,
    matrix, value)`` adds ``coef * matrix @ value[column]``, the value being
    the unknown's ``"rate"`` (difference quotient), ``"stage"`` or ``"new"``
    level, ``coef`` the term's sign times the physical coefficient of its
    form (see :mod:`fpsi.assembly`).  Transposes are views and coefficients
    a field, so no matrix is copied; a Newton matrix cell sums its terms in
    table order (theta's: mass_d, F, Bs)."""
    b, p = blocks, blocks.params
    eye = sp.identity(b.n_beta, format="csr")
    return ((0, 0, p.rho_f, b.mass_u, "rate"),
            (0, 0, 2.0 * p.mu_f, b.visc_u, "stage"),
            (0, 0, 1, b.slip_u, "stage"), (0, 2, 1, b.D, "stage"),
            (0, 3, -1, b.E, "stage"), (0, 4, -1, b.Gdiv.T, "new"),
            (1, 1, 1, eye, "rate"), (1, 3, -1, eye, "stage"),
            (2, 0, -1, b.D.T, "stage"), (2, 2, p.s0, b.mass_p, "rate"),
            (2, 2, 1, b.Bp, "stage"), (2, 3, 1, b.C.T, "stage"),
            (3, 0, -1, b.E.T, "stage"), (3, 2, -1, b.C, "stage"),
            (3, 3, p.rho_s, b.mass_d, "rate"), (3, 3, 1, b.F, "stage"),
            (3, 1, 1, b.Bs, "stage"), (4, 0, 1, b.Gdiv, "new"))


def _row_scales(blocks, dt, terms=None):
    """The largest absolute diagonal entry of each row's own-column rate and
    stage terms, each times its ``coef`` at 1/dt and 1; ``max |Gdiv|`` for
    the constraint row."""
    diagonals = [0.0] * 4
    for row, col, coef, matrix, value in terms or _linear_terms(blocks):
        if row == col:
            diagonals[row] += coef * matrix.diagonal() / (
                dt if value == "rate" else 1.0)
    s_con = abs(blocks.Gdiv).max() if blocks.Gdiv.nnz else 1.0
    return np.array([np.abs(d).max() for d in diagonals] + [s_con])


def _scaled_norm(rows, scales):
    norms = np.array([np.abs(r).max() if len(r) else 0.0 for r in rows])
    return float((norms / scales).max())


def _residual_rows(blocks, scheme, state0, z1, dt, loads, terms=None):
    """Residual rows, the stage values and the convection vector at the
    stage, from the table ``terms`` of :func:`_linear_terms` (or a new one)."""
    new = _unpack(blocks, z1)
    old = (state0.alpha, state0.beta, state0.gamma, state0.theta)
    stage = new if scheme == "euler" else \
        [0.5 * (x1 + x0) for x1, x0 in zip(new, old)] + [new[4]]
    values = {"rate": [(x1 - x0) / dt for x1, x0 in zip(new, old)],
              "stage": stage, "new": new}
    rows = [np.zeros(len(x)) for x in new]
    for row, col, coef, matrix, value in terms or _linear_terms(blocks):
        rows[row] += coef * (matrix @ values[value][col])
    nl, _ = blocks.convection(stage[0])
    rows[0] += nl
    for row, load in zip((0, 3, 2), loads):  # (a, b, c)
        rows[row] -= load
    return tuple(rows), StateVector(0.0, *stage), nl


def _cell(terms, s, dt, shape):
    """A Newton matrix cell in CSR, empty without terms, its parts freed on
    return: each term times its ``coef`` at 1/dt (rate), s (stage) or 1
    (new), beta's times ``s dt``, uncopied at 1 unless a transpose."""
    parts = []
    for _, col, coef, matrix, value in terms:
        c = (coef * (s if value == "stage" else 1.0)
             * (s * dt if col == 1 else 1.0))
        parts.append(coef * matrix / dt if value == "rate" else
                     matrix if c == 1.0 else c * matrix)
    if len(parts) < 2:
        return parts[0].tocsr() if parts else sp.csr_matrix(shape)
    return sparse_sum(*parts)


def _jacobian(blocks, scheme, dt, stage_alpha, terms=None):
    """Newton matrix on (alpha, gamma, theta, pi), kinematic row condensed,
    each cell from the terms of its row and column, ``s Jn`` a stage term.

    ``dbeta / dt - s dtheta = r_kin`` gives ``dbeta = dt (r_kin + s dtheta)``,
    so the structure row's ``s Bs`` adds ``s^2 dt Bs`` to the theta block
    and ``-s dt Bs r_kin`` to the right-hand side.

    CSR, one block row at a time: with every cell CSR, ``bmat`` stacks the
    compressed arrays and makes no COO copy, and a row's cells are freed as
    soon as the row is stacked.  ``splu`` takes its CSC.
    """
    s = 1.0 if scheme == "euler" else 0.5
    _, Jn = blocks.convection(stage_alpha, jac=True)
    terms = (*(terms or _linear_terms(blocks)), (0, 0, 1, Jn, "stage"))
    kept = (0, 2, 3, 4)  # unknowns of the condensed matrix; beta joins theta
    column = {0: 0, 1: 3, 2: 2, 3: 3, 4: 4}
    size = (blocks.n_alpha, blocks.n_beta, blocks.n_gamma, blocks.n_beta,
            blocks.n_pi)
    rows = [sp.bmat([[_cell([t for t in terms
                             if (t[0], column[t[1]]) == (i, j)],
                            s, dt, (size[i], size[j])) for j in kept]],
                    format="csr") for i in kept]
    return sp.bmat([[row] for row in rows], format="csr")


def _gmres_cycle(matvec, psolve, b, restart, tol):
    """One right-preconditioned GMRES cycle from x = 0 (Saad 2003, 9.3.2).

    Modified Gram-Schmidt Arnoldi on ``J M^-1`` keeps ``z_j = M^-1 v_j``, so
    ``k`` iterations make ``k`` preconditioner solves; Givens rotations keep
    the least-squares problem triangular, and ``|g_k|`` estimates
    ``|b - J x_k|``.  Returns ``(x, k)``, x None if ``tol`` was not reached.
    """
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b), 0
    V, Z = np.empty((restart + 1, len(b))), np.empty((restart, len(b)))
    H, g = np.zeros((restart + 1, restart)), np.zeros(restart + 1)
    cs, sn = np.empty(restart), np.empty(restart)
    V[0], g[0] = b / beta, beta
    for k in range(restart):
        Z[k] = psolve(V[k])
        w = matvec(Z[k])
        for i in range(k + 1):
            H[i, k] = V[i] @ w
            w -= H[i, k] * V[i]
        h_next = np.linalg.norm(w)
        for i in range(k):
            H[i, k], H[i + 1, k] = (cs[i] * H[i, k] + sn[i] * H[i + 1, k],
                                    cs[i] * H[i + 1, k] - sn[i] * H[i, k])
        r = np.hypot(H[k, k], h_next)
        cs[k], sn[k] = H[k, k] / r, h_next / r
        H[k, k] = r
        g[k + 1], g[k] = -sn[k] * g[k], cs[k] * g[k]
        if abs(g[k + 1]) <= tol:
            y = la.solve_triangular(H[:k + 1, :k + 1], g[:k + 1])
            return y @ Z[:k + 1], k + 1
        V[k + 1] = w / h_next
    return None, restart


def _condensed_points(dm):
    """The distinct dof points of the condensed unknowns (alpha, gamma,
    theta, pi), and the point of each unknown."""
    V, R, W, Q = dm.velocity, dm.pressure_p, dm.displacement, dm.pressure_f
    coords = np.vstack([V.scalar.dof_coords[V.free % V.scalar.ndof],
                        R.dof_coords[R.free],
                        W.scalar.dof_coords[W.free % W.scalar.ndof],
                        Q.dof_coords[Q.free]])
    return np.unique(coords, axis=0, return_inverse=True)


def _dissection_paths(xy, graph, weights):
    """Geometric nested dissection of weighted points (George 1973).

    Level by level, every part of more than ``LEAF_SIZE`` unknowns is cut
    at the median of its points along the longer side of its bounding box.
    The left points that ``graph`` (COO, symmetric) couples to a right point
    separate the part, and so do the right points it couples to a left
    point; the set of fewer unknowns (``weights``) is the part's separator,
    the left one on a tie.  On a row of P2 edge midpoints that is the
    vertex row beside it, not both rows.  Returns one array of digits per
    level: 0 for the left part, 1 for the right part and 2 for the
    separator, then 0 once a point's part is a leaf or a separator.
    Sorting the columns lexicographically orders every part's children
    before its separator.
    """
    n = len(xy)
    rows, cols = graph.row, graph.col
    part = np.zeros(n, dtype=np.intp)  # -1 once a point is placed
    paths = []
    while True:
        live = np.flatnonzero(part >= 0)
        unknowns = np.bincount(part[live], weights=weights[live])
        live = live[unknowns[part[live]] > LEAF_SIZE]
        if len(live) == 0:
            return paths
        p = np.unique(part[live], return_inverse=True)[1]
        lo = np.full((p.max() + 1, 2), np.inf)
        hi = -lo
        np.minimum.at(lo, p, xy[live])
        np.maximum.at(hi, p, xy[live])
        c = xy[live, np.argmax(hi - lo, axis=1)[p]]
        # the lower median of each part; a part whose median is its
        # largest coordinate is cut below it, so both sides are nonempty
        count = np.bincount(p)
        median = c[np.lexsort((c, p))[np.cumsum(count) - count // 2 - 1]]
        left = c <= median[p]
        whole = np.bincount(p, weights=left) == count
        left &= ~(whole[p] & (c == median[p]))
        where = np.full(n, -1)
        where[live] = p
        side = np.zeros(n, dtype=np.int8)
        side[live] = ~left
        inside = (where[rows] >= 0) & (where[rows] == where[cols])
        rows, cols = rows[inside], cols[inside]
        # the points coupled across the cut, and the unknowns of each
        # part's left and right ones: the lighter side separates the part
        cut = np.zeros(n, dtype=bool)
        cut[rows[side[rows] != side[cols]]] = True
        heavy = np.bincount(2 * where[cut] + side[cut], weights=weights[cut],
                            minlength=2 * len(count)).reshape(-1, 2)
        lighter = (heavy[:, 1] < heavy[:, 0]).astype(np.int8)
        digit = side.copy()
        digit[cut & (side == lighter[where])] = 2
        paths.append(digit)
        live = live[digit[live] != 2]
        part = np.full(n, -1)
        part[live] = 2 * where[live] + side[live]


def _nested_dissection(dm, J):
    """A nested-dissection order of the condensed unknowns: ``perm`` such
    that ``J[perm][:, perm]`` numbers each part's children before its
    separator, and the unknowns of one dof point consecutively."""
    xy, point = _condensed_points(dm)
    n = len(point)
    S = sp.csr_matrix((np.ones(n), (point, np.arange(n))),
                      shape=(len(xy), n))
    # J's pattern is symmetric, so its CSC arrays read as CSR give it
    pattern = sp.csr_matrix((np.ones(J.nnz), J.indices, J.indptr),
                            shape=J.shape)
    paths = _dissection_paths(xy, (S @ pattern @ S.T).tocoo(),
                              np.bincount(point))
    # lexsort sorts by its last key first; a system that is one leaf has
    # no level to sort by
    order = np.lexsort(paths[::-1]) if paths else np.arange(len(xy))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return np.argsort(rank[point], kind="stable")


class NewtonSolver:
    """Newton corrections for one ``(blocks, scheme, dt)``.

    Holds the table of linear terms (:func:`_linear_terms`); the row scales
    of the convergence test; the nested-dissection order ``perm`` of the
    condensed unknowns, computed at the first factorisation; and one Newton
    matrix, the condensed ``J_f`` (CSC) it last factored, its stage
    velocity ``alpha_f`` and its single-precision sparse LU factor in that
    order, which right-preconditions GMRES for later corrections too.
    """

    def __init__(self, blocks, scheme, dt):
        self.blocks = blocks
        self.scheme = scheme
        self.dt = dt
        self.s = 1.0 if scheme == "euler" else 0.5
        self.terms = _linear_terms(blocks)
        self.scales = _row_scales(blocks, dt, self.terms)
        self.perm = None
        self.lu = self.J_f = self.alpha_f = None

    def correction(self, rhs, stage_alpha):
        """Solve J(stage) dz = rhs; returns (dz, GMRES iterations, factored).

        ``rhs`` and ``dz`` hold all five block rows.  ``factored`` says
        whether the condensed matrix was factored for this correction.
        """
        blocks, s, dt = self.blocks, self.s, self.dt
        rows = _unpack(blocks, rhs)
        r_kin = rows[1]
        # the beta-column stage terms that _jacobian folds into theta take
        # -coef s dt matrix r_kin into their rows
        for row, col, coef, matrix, value in self.terms:
            if col == 1 and row != 1 and value == "stage":
                rows[row] = rows[row] - (coef * s * dt) * (matrix @ r_kin)
        b = np.concatenate([rows[0], rows[2], rows[3], rows[4]])
        x, krylov, factored = self._solve(b, stage_alpha)
        na, ng, nb = blocks.n_alpha, blocks.n_gamma, blocks.n_beta
        d_beta = dt * (r_kin + s * x[na + ng:na + ng + nb])
        return np.concatenate([x[:na], d_beta, x[na:]]), krylov, factored

    def _factor(self, stage_alpha):
        # the old matrix and factor go first, so that none is alive at the
        # first splu, which sets the memory peak of a run
        self.lu = self.J_f = None
        J = self.J_f = _jacobian(self.blocks, self.scheme, self.dt,
                                 stage_alpha, self.terms).tocsc()
        self.alpha_f = stage_alpha.copy()
        if self.perm is None:
            self.perm = _nested_dissection(self.blocks.dm, J)
        # the order fixes the fill for given values: a pivot threshold of
        # 1e-3 fills as little as 0 does at n = 16, 32 and 64, 0.01 1.25
        # times as much at n = 32 and 2.8 times at n = 64; at n = 16, 1e-3
        # fills 456,466 with rho_f = 1e4 against 331,700 with the defaults
        self.lu = spla.splu(J.astype(np.float32)[self.perm][:, self.perm],
                            permc_spec="NATURAL", diag_pivot_thresh=1e-3,
                            options={"SymmetricMode": True})

    def _matvec(self, stage_alpha):
        """``v -> J(stage) v``: ``J_f v`` plus ``s Jn(stage - alpha_f)`` on
        the velocity block, Jn being linear; ``J_f`` alone at alpha_f."""
        if np.array_equal(stage_alpha, self.alpha_f):
            return self.J_f.__matmul__
        _, dJn = self.blocks.convection(stage_alpha - self.alpha_f, jac=True)
        na = self.blocks.n_alpha

        def matvec(v):
            out = self.J_f @ v
            out[:na] += self.s * (dJn @ v[:na])
            return out
        return matvec

    def _precondition(self, r):
        """``M^-1 r = P^T lu.solve(P r)``: one single-precision solve of
        ``r`` scaled to unit norm, so that float32 neither overflows nor
        underflows, with the result back in double."""
        scale = np.linalg.norm(r) or 1.0  # r = 0 solves to 0
        x = np.empty_like(r)
        x[self.perm] = self.lu.solve((r[self.perm] / scale).astype(np.float32))
        return scale * x

    def _solve(self, b, stage_alpha):
        """GMRES(``GMRES_RESTART``) cycles preconditioned by the factor until
        the estimate and the true residual reach the tolerance (NaN fails):
        a miss refactors, and a fresh factor's miss is a :class:`StepError`."""
        tol = GMRES_RTOL * np.linalg.norm(b)
        krylov = 0
        for fresh in (self.lu is None, True):
            if fresh:
                self._factor(stage_alpha)
            matvec = self._matvec(stage_alpha)
            x, k = _gmres_cycle(matvec, self._precondition, b,
                                GMRES_RESTART, tol)
            krylov += k
            if x is not None and np.linalg.norm(b - matvec(x)) <= tol:
                return x, krylov, fresh
            if fresh:
                raise StepError("GMRES on a fresh factor missed its residual "
                                "test in %d iterations" % k, np.nan, 0)


def step(blocks, data, state0, cfg, newton=None):
    """Advance one time step; returns (new_state, StepDiagnostics).

    ``newton`` is the trajectory's :class:`NewtonSolver`; a fresh one is
    built when it is omitted, so a lone step's first correction factors.
    """
    dt = cfg.dt
    t1 = state0.t + dt
    t_load = t1 if cfg.scheme == "euler" else state0.t + 0.5 * dt
    loads = assemble_loads(t_load, data, blocks.dm)
    if newton is None:
        newton = NewtonSolver(blocks, cfg.scheme, dt)

    z, norms = _pack(state0), []
    iterations = krylov_iterations = factorizations = factor_fill = 0
    while True:
        rows, stage, nl = _residual_rows(blocks, cfg.scheme, state0, z, dt,
                                         loads, newton.terms)
        norms.append(_scaled_norm(rows, newton.scales))
        # a NaN residual fails both comparisons: it is never converged
        if norms[-1] <= cfg.newton_tol:
            break
        if iterations >= cfg.newton_max or not np.isfinite(norms[-1]):
            raise StepError(
                "Newton iteration did not converge at t = %.6g "
                "(residual %.3e after %d iterations)"
                % (t1, norms[-1], iterations), norms[-1], iterations)
        try:
            dz, krylov, factored = newton.correction(np.concatenate(rows),
                                                     stage.alpha)
        except StepError as exc:
            raise StepError(
                "%s, at t = %.6g (residual %.3e after %d Newton iterations)"
                % (exc, t1, norms[-1], iterations), norms[-1],
                iterations) from exc
        z = z - dz
        iterations += 1
        krylov_iterations += krylov
        factorizations += factored
        if factored:
            factor_fill += newton.lu.nnz

    state1 = StateVector(t1, *_unpack(blocks, z))
    diag = StepDiagnostics(t=t1, iterations=iterations,
                           residual_norms=norms,
                           work=float(blocks.work(loads, stage)),
                           convection_power=float(stage.alpha @ nl),
                           krylov_iterations=krylov_iterations,
                           factorizations=factorizations,
                           factor_fill=factor_fill)
    return state1, diag


def run(blocks, data, cfg, initial_state=None, on_step=None):
    """Integrate from t = initial_state.t over ``n_steps`` uniform steps.

    Only the current state is held: ``on_step(state, diag)`` sees each
    accepted state as it is made, so a caller that reads the states (the
    certificate's :class:`~fpsi.monitor.CertificateStream`) takes them from
    there; the returned :class:`RunRecord` keeps the final state.
    """
    n = cfg.n_steps()
    state = initial_state if initial_state is not None \
        else blocks.zero_state()
    newton = NewtonSolver(blocks, cfg.scheme, cfg.dt)
    diagnostics = []
    for _ in range(n):
        state, diag = step(blocks, data, state, cfg, newton=newton)
        diagnostics.append(diag)
        if on_step is not None:
            on_step(state, diag)
    return RunRecord(state=state, diagnostics=diagnostics)
