"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (index loops,
characteristic polynomials, complex Pauli algebra) so that agreement with
the fast production code is evidence rather than tautology. Complex
arithmetic is allowed here; only the production pipeline is restricted to
real matrices.
"""

import json
from dataclasses import dataclass

import numpy as np

from qrgxy.errors import ContractError, StructureError
from qrgxy.pauli import spin_flip
from qrgxy.rgflow import STRUCTURE_TOL

NORM_TOL = 1e-10

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def det_gauss(a):
    """Determinant by Gaussian elimination with partial pivoting."""
    m = np.array(a, dtype=float)
    n = m.shape[0]
    det = 1.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(m[col:, col])))
        if m[piv, col] == 0.0:
            return 0.0
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
            det = -det
        det *= m[col, col]
        m[col + 1:] -= np.outer(m[col + 1:, col] / m[col, col], m[col])
    return det


def charpoly_eigenvalues(a, scan_points=4001, tol=1e-12):
    """All eigenvalues of a small symmetric matrix, found as the sign-change
    roots of the characteristic polynomial det(a - x*1) and polished by
    bisection. Requires the eigenvalues to be simple enough for the scan to
    separate; raises if any root is missed."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    radius = float(np.max(np.sum(np.abs(a), axis=1)))  # Gershgorin bound
    xs = np.linspace(-radius - 1.0, radius + 1.0, scan_points)
    p = np.array([det_gauss(a - x * np.eye(n)) for x in xs])
    roots = []
    for k in range(len(xs) - 1):
        if p[k] == 0.0:
            roots.append(xs[k])
            continue
        if p[k] * p[k + 1] < 0.0:
            lo, hi = xs[k], xs[k + 1]
            flo = p[k]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fmid = det_gauss(a - mid * np.eye(n))
                if fmid == 0.0:
                    lo = hi = mid
                    break
                if flo * fmid < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            roots.append(0.5 * (lo + hi))
    if len(roots) != n:
        raise AssertionError(
            f"characteristic-polynomial scan found {len(roots)} roots, expected {n}; "
            "pick a better-conditioned test matrix"
        )
    return np.sort(np.array(roots))


def partial_trace_bruteforce(state, pair, n_spins):
    """Two-site reduced density matrix by explicit index summation.

    Site k of basis index b lives in bit (n_spins - 1 - k). Pair legs keep
    the order in which the sites are given."""
    psi = np.asarray(state, dtype=float)
    ka, kb = pair
    pa, pb = n_spins - 1 - ka, n_spins - 1 - kb
    rest = [n_spins - 1 - k for k in range(n_spins) if k not in (ka, kb)]
    rho = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            acc = 0.0
            for r in range(2 ** len(rest)):
                ia = ((a >> 1) & 1) << pa | (a & 1) << pb
                ib = ((b >> 1) & 1) << pa | (b & 1) << pb
                for t, pos in enumerate(rest):
                    bit = (r >> t) & 1
                    ia |= bit << pos
                    ib |= bit << pos
                acc += psi[ia] * psi[ib]
            rho[a, b] = acc
    return rho


def embed_complex(op, site, n_spins):
    """Complex tensor-product embedding of a single-site operator."""
    out = np.array([[1.0 + 0.0j]])
    for k in range(n_spins):
        out = np.kron(out, op if k == site else ID2)
    return out


def xy_hamiltonian_complex(j, gamma, n_spins, bonds):
    """(j/4) * sum over (a, b, weight) of weight * [(1+gamma) X_a X_b +
    (1-gamma) Y_a Y_b], built in complex arithmetic with the textbook
    sigma^y."""
    dim = 2 ** n_spins
    h = np.zeros((dim, dim), dtype=complex)
    for a, b, w in bonds:
        xa, xb = embed_complex(SX, a, n_spins), embed_complex(SX, b, n_spins)
        ya, yb = embed_complex(SY, a, n_spins), embed_complex(SY, b, n_spins)
        h += w * ((1.0 + gamma) * (xa @ xb) + (1.0 - gamma) * (ya @ yb))
    return (j / 4.0) * h


def xy_hamiltonian_per_bond(j, gamma, n_spins, bonds):
    """(j/4) * sum over (a, b) of [(1+gamma) X_a X_b + (1-gamma) Y_a Y_b] in
    real arithmetic, one bond at a time, each term a full 2^n Kronecker
    embedding, with Y_a Y_b = -(K_a K_b) for the real K = -i sigma^y. Every
    matrix entry gets exactly one bond's term, so it agrees with
    xy_hamiltonian_complex bit for bit."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    k = np.array([[0.0, -1.0], [1.0, 0.0]])

    def embed(op, site):
        out = np.array([[1.0]])
        for s in range(n_spins):
            out = np.kron(out, op if s == site else np.eye(2))
        return out

    h = np.zeros((2 ** n_spins, 2 ** n_spins))
    scale = j / 4.0
    for a, b in bonds:
        xx = embed(sx, a) @ embed(sx, b)
        yy = -(embed(k, a) @ embed(k, b))
        h += scale * ((1.0 + gamma) * xx + (1.0 - gamma) * yy)
    return h


def collective_spin_kron_tables(s):
    """(coupling, corner) of the spin-s block built from Kronecker products:
    XX = sx (x) 2 Sx and YY = -(K (x) (-i 2 Sy)) on the basis (c, k) at
    position c (2s + 1) + k, the coupling blocks a = XX + YY and
    b = XX - YY cut out of them with np.ix_ at the rows and columns of each
    parity half, and a corner's sx and (-i sy) as 1 (x) 2 Sx / (2s) and
    1 (x) (-i 2 Sy) / (2s); blocks.CollectiveSpin holds the same tables of
    s = d. The spin operators come from the ladder coefficients of S+."""
    k = np.arange(1, 2 * s + 1)
    raise_ = np.diag(np.sqrt(k * (2 * s + 1 - k)), 1)
    two_sx, k_two_sy = raise_ + raise_.T, raise_.T - raise_
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    ky = np.array([[0.0, -1.0], [1.0, 0.0]])
    xx = np.kron(sx, two_sx)
    yy = -np.kron(ky, k_two_sy)
    kk = np.arange(2 * s + 1)
    # the half of parity (-1)^(c + k) = (-1)^p: c = p at even k first, then c = 1 - p at odd k
    halves = [np.concatenate([p * kk.size + kk[::2], (1 - p) * kk.size + kk[1::2]]) for p in (0, 1)]
    coupling = np.stack([
        [term[np.ix_(h[: s + 1], h[s + 1 :])] for h in halves] for term in (xx + yy, xx - yy)
    ])
    corner = np.stack([np.kron(np.eye(2), two_sx), np.kron(np.eye(2), k_two_sy)]) / (2 * s)
    return coupling, corner


def ground_doublet_full(params, geometry):
    """(energy, phi1, phi2, gap_to_third) from the full 2^n block: one eigh
    of the per-bond Kronecker build, then the 2x2 restriction of the parity
    diag((-1)^popcount) to the ground plane is diagonalized to pick the even
    (phi1) and odd (phi2) members, each sign-gauged so that its first entry
    of largest magnitude is positive. The package solves the two parity
    sectors separately instead; both must give the same doublet."""
    bonds = [(center, corner) for center, corner, _axis in geometry.intra_bonds]
    h = xy_hamiltonian_per_bond(params.j, params.gamma, geometry.n_sites, bonds)
    w, v = np.linalg.eigh(h)
    parity = np.array([(-1.0) ** bin(i).count("1") for i in range(2 ** geometry.n_sites)])
    plane = v[:, :2]
    pw, pv = np.linalg.eigh(plane.T @ (parity[:, None] * plane))
    assert abs(pw[0] + 1.0) < 1e-9 and abs(pw[1] - 1.0) < 1e-9, pw

    def gauged(vec):
        return vec if vec[int(np.argmax(np.abs(vec)))] > 0 else -vec

    rotated = plane @ pv
    return float(w[0]), gauged(rotated[:, 1]), gauged(rotated[:, 0]), float(w[2] - w[1])


def density_matrix(state):
    """Rank-1 projector |state><state| of a normalized real state vector."""
    state = np.asarray(state, dtype=float)
    nrm2 = float(state @ state)
    if not abs(nrm2 - 1.0) <= NORM_TOL:
        raise ContractError(f"state is not normalized: |psi|^2 = {nrm2:.12g}")
    return np.outer(state, state)


@dataclass(frozen=True)
class RenormalizedOperators:
    """Coefficients of the effective one-spin operators at one corner:
    projecting sigma^x_corner onto the doublet gives xi_x sigma'^x, and
    sigma^y_corner gives xi_y sigma'^y. Only the squares are gauge free."""

    xi_x: float
    xi_y: float
    corner: int


def renormalized_operators(doublet, corner):
    """Project the corner sigma^x and sigma^y onto a full-basis ground
    doublet (rgflow.GroundDoublet), as index flips of its 2^n vectors.

    sigma^x flips one spin, so it is parity-odd and its projection must have
    zero diagonal; a violation means the doublet was not parity-pure and is
    reported instead of silently absorbed. The y projection is evaluated
    through the real matrix of (-i sigma^y): with real doublet vectors,
    <phi1|sigma^y|phi2> = i <phi1|(-i sigma^y)|phi2>, and the pure sigma'^y
    form pins xi_y = -<phi1|(-i sigma^y)|phi2>. rgflow.solve_many takes the
    same projections in S = d, under the same check."""
    flip, signs = spin_flip(corner, doublet.n_spins)
    x1 = doublet.phi1[flip]  # phi1 @ sx
    x2 = doublet.phi2[flip]
    d1 = float(x1 @ doublet.phi1)
    d2 = float(x2 @ doublet.phi2)
    off = float(x1 @ doublet.phi2)
    off_t = float(x2 @ doublet.phi1)
    if not (max(abs(d1), abs(d2)) <= STRUCTURE_TOL and abs(off - off_t) <= STRUCTURE_TOL):
        raise StructureError(
            f"projected sigma^x at site {corner} is not proportional to sigma'^x: "
            f"diagonal ({d1:.3e}, {d2:.3e}), off-diagonals ({off:.12g}, {off_t:.12g})"
        )
    xi_y = -float((x1 * signs) @ doublet.phi2)
    return RenormalizedOperators(xi_x=off, xi_y=xi_y, corner=corner)


def wootters_concurrence_complex(rho):
    """Concurrence from the non-symmetric eigenproblem of rho * rho_tilde,
    using the complex sigma^y spin flip."""
    rho = np.asarray(rho, dtype=complex)
    yy = np.kron(SY, SY)
    rho_t = yy @ rho.conj() @ yy
    lam = np.linalg.eigvals(rho @ rho_t)
    lam = np.sort(np.sqrt(np.clip(lam.real, 0.0, None)))[::-1]
    return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0))


def x_state_concurrence(rho):
    """Concurrence of a two-spin X state (nonzero off-diagonal entries only
    at (0, 3) and (1, 2) and their transposes) in closed form."""
    return 2.0 * max(
        0.0,
        abs(rho[0, 3]) - np.sqrt(rho[1, 1] * rho[2, 2]),
        abs(rho[1, 2]) - np.sqrt(rho[0, 0] * rho[3, 3]),
    )


def pair_gather(geometry):
    """(4, 2^(n-2)) index: phi[index] has the legs (i, j) of the first two
    corners, in site order, as rows and all other spins as columns."""
    n = geometry.n_sites
    pair = sorted(corner.site for corner in geometry.corners[:2])
    return np.moveaxis(np.arange(2 ** n).reshape((2,) * n), pair, (0, 1)).reshape(4, -1)


def corner_pair_state(phi, geometry):
    """Reduced state of the first two corners of a full-basis block vector,
    legs in site order, gathered from the 2^n amplitudes."""
    m = phi[pair_gather(geometry)]
    return m @ m.T


def bisect_one_at_a_time(f, a, b, fa, width):
    """The root of f(x) - x in the bracket [a, b], whose residual at a is
    fa, bisecting one midpoint per call of f down to a residual of exactly
    0 or a bracket no wider than width."""
    while b - a > width:
        mid = 0.5 * (a + b)
        fm = f(mid) - mid
        if fm == 0.0:
            return mid
        if (fa < 0) == (fm < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def fixed_points_one_at_a_time(solve, grid, slope_step=1e-5, merge_tol=1e-7, width=1e-12):
    """(gamma, stability, slope) of every root of gamma' = gamma on a grid
    of [-1, 1], bisecting each sign change one midpoint per solve and
    taking each root's two-point slope stencil in a solve of its own.
    solve maps an array of gammas to their gamma' values. The grid is
    np.linspace's, with the points that miss 0 by rounding alone (the
    middle of an odd grid) replaced by one exact 0."""
    gs = np.array(sorted([g for g in np.linspace(-1.0, 1.0, grid) if abs(g) > 1e-15] + [0.0]))
    res = solve(gs) - gs
    roots = [float(g) for g, r in zip(gs, res) if r == 0.0]
    def gamma_prime(g):
        return float(solve([g])[0])

    for i in range(len(gs) - 1):
        if res[i] * res[i + 1] < 0.0:
            roots.append(float(bisect_one_at_a_time(gamma_prime, gs[i], gs[i + 1], res[i], width)))
    merged = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > merge_tol:
            merged.append(r)
    out = []
    for r in merged:
        lo = max(r - slope_step, -1.0)
        hi = min(r + slope_step, 1.0)
        gp_lo, gp_hi = solve([lo, hi])
        slope = float(abs((gp_hi - gp_lo) / (hi - lo)))
        out.append((r, "stable" if slope < 1.0 else "unstable", slope))
    return out


def per_cell_table(header, rows, fmt, number=lambda x: "%.12g" % float(x)):
    """A CLI table written one cell at a time: rows are dicts keyed like
    `header`; JSON dumps them as they are, CSV writes each float cell with
    `number` and every other cell with str."""
    if fmt == "json":
        return json.dumps(rows, indent=2, ensure_ascii=False) + "\n"
    lines = [",".join(header)]
    for row in rows:
        cells = (row[k] for k in header)
        lines.append(",".join(number(c) if isinstance(c, float) else str(c) for c in cells))
    return "\n".join(lines) + "\n"


def amplitude(x):
    """A ground-state amplitude as the CLI's CSV prints it: 12 decimals,
    rounded first so that + 0.0 also clears those below 5e-13."""
    return "%.12f" % (round(float(x), 12) + 0.0)


def _ladder_array(s):
    k = np.arange(1, 2 * s + 1)
    return np.sqrt(k * (2 * s + 1 - k))


def _halves_array(s):
    k = np.arange(2 * s + 1)
    return np.array([np.concatenate([p * k.size + k[::2], (1 - p) * k.size + k[1::2]]) for p in (0, 1)])


def collective_spin_numpy(d):
    """The ten fields of blocks.CollectiveSpin of dimension d, in field
    order, built with whole-array numpy operations (np.diag, np.eye, a
    broadcast fancy index, np.argsort, np.diagonal), as blocks built them
    before its tables were written from Python floats; the tables are not
    checked here."""
    lower = np.zeros((3, 3, d - 1, 2))
    for s in range(1, d + 1):
        ladder = 2.0 * _ladder_array(s)
        up, down = ladder[::2], ladder[1::2]
        ups, downs, cross = np.diag(up * up), np.diag(down * down), np.diag(down[:-1] * up[1:], 1)
        gram = np.array([[downs, ups], [cross + cross.T] * 2, [ups, downs]])
        if s < d:
            padded = np.zeros((3, 2, 2, 2))
            padded[..., :s, :s] = gram
            p, q, r = padded[..., 0, 0], padded[..., 1, 1], padded[..., 0, 1]
            lower[:, :, s - 1] = np.array([0.5 * (p + q), 0.5 * (p - q), r]).swapaxes(0, 1)
    a, b = np.eye(d + 1, d, -1) * down, np.eye(d + 1, d) * up
    coupling = np.array([[a, b], [b, a]])
    width = 2 * d + 1
    step = _ladder_array(d) / (2 * d)
    corner = np.zeros((2, 2 * width, 2 * width))
    corner[:, :width, :width] = corner[:, width:, width:] = [
        np.diag(step, 1) + np.diag(step, -1),
        np.diag(step, -1) - np.diag(step, 1),
    ]
    half = _halves_array(d)
    sx, ky = corner[:, half[0, :, None], 2 * width - 1 - half[0]]
    xi = np.array([sx, sx.T, ky, sx - ky, sx + ky])
    main = int(np.argmax(np.diagonal(gram[0, 0])))
    positions = [main] + [k for k in range(d) if k != main]
    star = np.array([positions + positions[1:], positions + [main] * (d - 1)])
    lower = lower.reshape(3, 3, 2 * (d - 1))
    bands = coupling[:, 0]
    poly = np.concatenate([gram[:, 0, star[0], star[1]], lower[..., ::2].reshape(3, -1)], axis=1)[..., None]
    place = np.argsort(star[0, :d])
    ladder = np.concatenate([np.diagonal(bands, 0, -2, -1), np.diagonal(bands, -1, -2, -1)], axis=1)[..., None]
    return coupling, gram, star, lower, half, corner, xi, poly, place, ladder


def pair_forms_numpy(d):
    """blocks.pair_forms of dimension d built with whole-array numpy
    operations, as blocks built it before its entries were Python floats."""
    n = 2 * d
    k = _halves_array(d)[0] % (n + 1)
    rise = np.sqrt((n - k) * (n - k - 1) * (k + 1.0) * (k + 2.0))
    forms = [np.diag(w) for w in ((n - k) * (n - k - 1), k * (n - k), k * (k - 1))]
    forms.append(np.where(k[:, None] + 2 == k, rise[:, None], 0.0))
    return np.stack(forms) / (n * (n - 1))
