"""Exact small-instance analysis: profile enumeration, brute-force optimum,
the one-slot transition kernel with its stationary distributions (direct
solve, Gibbs form, tree theorem), stochastic-stability checks, and a small
resistance calculus for tau -> 0 asymptotics.

Everything here reads a game's exact (frozen-fading) values, which every
game has, so the chain over assignment profiles is a concrete finite
Markov chain that can be solved and cross-checked three independent ways.

Profile indexing: profiles are enumerated mixed-radix over the active
players' channels with the lowest active player index as the least
significant digit; passive channels stay fixed.  Index k therefore decodes
as a_active[j] = (k // num_channels**j) % num_channels.

A weakly memoized table per game holds the profiles, as rows of one channel
array, and their normalized potentials, all that brute force and Gibbs
read, plus the neighbour index of every single-player switch and the exact
utilities, filled when a kernel or the resistances first need them.  Both
are gathered per distinct member set; the potentials add their channel
columns through ``CapGame.rate_sum_bits``, the potential's one order.
Dense kernels refuse > 4096 profiles, counted without building a power
more than one factor past the guard.
The channel array is the one state space: a chain over it, kernel or
resistances, is a plain float64 (n, n) matrix in ``enumerate_profiles``
order, and only optimal or stable rows become channel tuples.  A
stationary law is a plain 1-D float64 probability vector, in that order too.
"""

from __future__ import annotations

import itertools
import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .game import CapGame
from .learning import acceptance_probability

__all__ = [
    "enumerate_profiles",
    "BruteForceResult",
    "brute_force_optimum",
    "exact_transition_matrix",
    "stationary_direct",
    "gibbs_distribution",
    "stationary_tree",
    "stochastically_stable_states",
    "MinTreeReport",
    "min_resistance_tree_check",
    "game_resistance_kernel",
    "ResistanceExpr",
    "res_of_const",
    "res_of_exp",
    "res_add",
    "res_sub",
    "res_mul",
    "res_inv",
    "empirical_resistance",
]

_SPACE_GUARD = 10 ** 6
_DENSE_GUARD = 4096  # an n x n float64 kernel at this size is 128 MiB
_TREE_STATE_CAP = 8
# normalized potentials within this of the best are optimal ties
_TIE_TOL = 1e-12
# tree edges of resistance at most this count as zero-resistance edges
_ZERO_RES_TOL = 1e-12
# largest fit residual empirical_resistance accepts without a warning
_FIT_RESIDUAL_TOL = 5e-2
# states per block of stationary_direct's elimination
_GTH_BLOCK = 32
# OpenBLAS 0.3 runs a dgemm of M*N*K <= 2**18 on one thread (65536 times
# its default GEMM_MULTITHREAD_THRESHOLD of 4), so its bits do not depend
# on OPENBLAS_NUM_THREADS.  It bounds each piece of all three products of a
# block in stationary_direct: the row panel's, the column panel's and the
# trailing update's
_GTH_PANEL_MNK = 2 ** 18
_REDUCIBLE = ("reducible chain: eliminated state has no path back; use "
              "stationary_tree")


# ----------------------------------------------------------------------
# profile space


def _profile_count(channels: int, players: int, guard: int, what: str) -> int:
    """``channels ** players`` profiles; raises above ``guard``.  The power
    is built factor by factor and given up one factor past the guard, so
    a refusal costs the same at any exponent and names an unbuilt size as
    ``channels^players``."""
    size = 1
    for done in range(1, players + 1):
        size *= channels
        if size > guard:
            shown = size if done == players else f"{channels}^{players}"
            raise ValueError(f"{what} of size {shown} exceeds the {guard} "
                             "guard")
    return size


def enumerate_profiles(game: CapGame) -> np.ndarray:
    """All valid profiles as rows of a read-only int16 array, mixed radix."""
    base = game.initial_profile()
    active = game.active_players
    size = _profile_count(game.num_channels, len(active), _SPACE_GUARD,
                          "profile space")
    radix = game.num_channels ** np.arange(len(active))
    channels = np.tile(base.channels, (size, 1))
    channels[:, active] = np.arange(size)[:, None] // radix % game.num_channels
    channels.setflags(write=False)
    return channels


def _member_sets(on: np.ndarray):
    """Distinct rows of a boolean (profiles, links) array, as link indices,
    and for each profile the position of its row among them."""
    # each row packed into bytes and compared as one value: packbits is
    # big-endian, so the values sort as the boolean rows do, and the zero
    # column padded on keeps a row of no links one byte long
    packed = np.packbits(np.pad(on, ((0, 0), (0, 1))), axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    return [np.nonzero(r)[0] for r in on[first]], index


class _ProfileTable:
    """One game's profile space; holds no reference to the game (weak memo)."""

    def __init__(self, game: CapGame):
        self.channels = enumerate_profiles(game)
        columns = []  # per-channel rate sums, summed as the potential is
        for c in range(game.num_channels):
            sets, index = _member_sets(self.channels == c)
            columns.append(np.array([game.set_rate_exact(m) if len(m) else 0.0
                                     for m in sets])[index])
        self.phi = game.rate_sum_bits(columns) / game.phi_max
        # filled by _moves on first use: (n, active, channels), (n, active)
        self.neighbour = self.utility = None


_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _table(game: CapGame) -> _ProfileTable:
    if game not in _TABLES:
        _TABLES[game] = _ProfileTable(game)
    return _TABLES[game]


def _moves(game: CapGame):
    """(from, to, utility drop): index arrays over every single-active-player
    switch, ordered by profile, then player, then channel."""
    table = _table(game)
    if table.utility is None:
        # mixed radix: player j's digit is k // radix[j] % c; switching it
        # to channel c' moves profile k by (c' - digit) * radix[j]
        c = game.num_channels
        k = np.arange(len(table.channels))[:, None, None]
        radix = c ** np.arange(len(game.active_players))[:, None]
        table.neighbour = k + radix * (np.arange(c) - k // radix % c)
        # one utility per distinct co-channel set of each active player
        table.utility = np.empty((len(table.channels),
                                  len(game.active_players)))
        for j, i in enumerate(game.active_players):
            sets, index = _member_sets(table.channels
                                       == table.channels[:, i:i + 1])
            table.utility[:, j] = np.array([game.set_utility_exact(m, i)
                                            for m in sets])[index]
    nb = table.neighbour
    frm, player, chan = np.nonzero(nb != np.arange(len(nb))[:, None, None])
    to = nb[frm, player, chan]
    return frm, to, table.utility[frm, player] - table.utility[to, player]


def _keys(channels: np.ndarray) -> tuple:
    """Channel rows as sorted channel tuples."""
    return tuple(sorted(map(tuple, channels.tolist())))


def _ties(phi, best: float) -> np.ndarray:
    """The tie rule: potentials within ``_TIE_TOL`` of the best are optimal."""
    return best - phi <= _TIE_TOL


def _optimal_share(game: CapGame, sum_rate: np.ndarray, best: float) -> float:
    """Share of frozen-fading sum rates (bits/s) that are optimal: brute
    force's rule on the normalized floats its table holds."""
    phi = sum_rate / game.phi_max
    return int(np.count_nonzero(_ties(phi, best))) / len(phi)


@dataclass
class BruteForceResult:
    """Exhaustive-search optimum with all ties kept."""

    keys: tuple               # maximizing channel tuples, sorted
    phi_star: float           # bits/s
    normalized_phi_star: float
    num_evaluated: int


def brute_force_optimum(game: CapGame) -> BruteForceResult:
    """Scan every profile; ties within ``_TIE_TOL`` of the best normalized
    sum rate are all returned."""
    table = _table(game)
    best = float(table.phi.max())
    winners = np.nonzero(_ties(table.phi, best))[0]
    return BruteForceResult(keys=_keys(table.channels[winners]),
                            phi_star=best * game.phi_max,
                            normalized_phi_star=best,
                            num_evaluated=len(table.channels))


# ----------------------------------------------------------------------
# exact one-slot kernel


def _check_chain(p) -> np.ndarray:
    """``p`` as a float64 array, refused unless a row-stochastic matrix: a
    non-empty square of finite, non-negative entries whose rows sum to 1
    within 1e-12.  Whole-matrix reductions only: no n x n temporary."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.size == 0:
        raise ValueError("a transition matrix must be a non-empty square")
    if not 0.0 <= p.min() <= p.max() < np.inf:  # False for NaN
        raise ValueError("entries must be finite and non-negative")
    if not np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12:
        raise ValueError("rows must sum to 1 within 1e-12")
    return p


def exact_transition_matrix(game: CapGame, tau: float) -> np.ndarray:
    """One-slot chain over profiles under exact utilities: a float64 (n, n)
    row-stochastic matrix, rows and columns in ``enumerate_profiles`` order.

    Off-diagonal mass exists only between single-active-coordinate
    neighbors: pick player (1/#active), pick that channel (1/#channels),
    accept with probability 1/(1 + exp(dU/tau)).  The diagonal absorbs
    everything else, including self-trials.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    n_active = len(game.active_players)
    n = _profile_count(game.num_channels, n_active, _DENSE_GUARD,
                       "dense kernel")
    if n_active == 0:
        raise ValueError("at least one active player is required")
    pick = 1.0 / (n_active * game.num_channels)
    frm, to, drop = _moves(game)
    mat = np.zeros((n, n))
    mat[frm, to] = pick * acceptance_probability(drop, tau)
    np.fill_diagonal(mat, 1.0 - mat.sum(axis=1))
    return mat


# ----------------------------------------------------------------------
# stationary distributions, three ways


def stationary_direct(p) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 by direct elimination for the
    row-stochastic matrix ``p``; returns pi, indexed like p's rows.

    Uses elimination in the Grassmann-Taksar-Heyman form: every update adds
    nonnegative quantities, so the result keeps full entrywise relative
    accuracy even when the chain mixes slowly.  Raises when transition
    probabilities have decayed below unit roundoff (very small tau); the
    Gibbs form or the tree method handle those chains.

    The elimination is blocked.  States leave from the end in blocks K of
    b = ``_GTH_BLOCK``.  A block runs GTH's own steps, state by state, on a
    b x (b + 1) work matrix: the block's square and, in front of it, an
    aggregate column that holds each block row's total mass to the states
    below the block.  So each state's sum left of its diagonal still comes
    from nonnegative terms only, and a state with no path back is refused
    as it is eliminated.  The panels then take the block's steps at once,
    through two nonnegative triangular factors: the row panel
    ``a[K, :k0]`` becomes ``(I - N_U)^-1 @ a[K, :k0]`` and the column panel
    ``a[:k0, K]`` becomes ``a[:k0, K] @ (D - N_L)^-1``.  N_U is the
    eliminated square's strict upper part (its scaled columns), N_L its
    strict lower part (each row as its state left) and D the diagonal of
    the states' sums.  Both inverses are built row by row (column by
    column) by back substitution as the states leave, from products and
    sums of nonnegative numbers.  The leading ``a[:k0, :k0]`` then
    receives the whole block's updates as one matrix product of
    nonnegative factors, so every update still only adds.

    Each of the three products runs in pieces of at most ``_GTH_PANEL_MNK``
    multiply-adds (the trailing one in single rows past about 8,200 states,
    where even one row exceeds it), the size up to which OpenBLAS keeps a
    product on one thread; larger products are split across threads and
    their sums, hence the last bits of pi, would depend on the BLAS thread
    count.  The leading block, of at most b + 1 states, keeps the plain
    state-by-state steps, so chains of at most ``_GTH_BLOCK + 1`` states
    give the same bits as the state-by-state form.
    """
    p = _check_chain(p)
    n = len(p)
    # the off-diagonal entries, as a view: row i of the flat matrix past its
    # first entry, cut into rows of n + 1, holds a[i, i+1:] and a[i+1, :i+1]
    off = p.ravel()[1:].reshape(n - 1, n + 1)[:, :n]
    if np.min(off, where=off > 0, initial=np.inf) < 1e-15:
        # edges below unit roundoff make the chain numerically reducible:
        # quasi-stationary mixtures also pass the residual check, so the
        # solve cannot certify uniqueness
        raise ValueError("some transition probabilities are below unit "
                         "roundoff (tau too small?); use stationary_tree "
                         "or the Gibbs form")
    a = p.copy()
    b = _GTH_BLOCK
    piece = _GTH_PANEL_MNK // (b * b)  # panel columns (rows) per product
    k1 = n
    while k1 > b + 1:
        k0 = k1 - b  # this block eliminates k1 - 1 .. k0
        blk = slice(k0, k1)
        # column 0: each block row's mass to the states below the block
        w = np.empty((b, b + 1))
        w[:, 0] = a[blk, :k0].sum(axis=1)
        w[:, 1:] = a[blk, blk]
        t_r = np.eye(b)  # (I - N_U)^-1
        t_c = np.zeros((b, b))  # (D - N_L)^-1
        for j in range(b - 1, -1, -1):
            s = float(w[j, :j + 1].sum())
            if s <= 0.0:
                raise ValueError(_REDUCIBLE)
            w[:j, j + 1] /= s
            w[:j, :j + 1] += np.outer(w[:j, j + 1], w[j, :j + 1])
            # row j of t_r and column j of t_c, by back substitution over
            # the block's states already eliminated
            t_r[j, j + 1:] = w[j, j + 2:] @ t_r[j + 1:, j + 1:]
            t_c[j, j] = 1.0 / s
            t_c[j + 1:, j] = t_c[j + 1:, j + 1:] @ w[j + 1:, j + 1] / s
        a[blk, blk] = w[:, 1:]
        for c in range(0, k0, piece):
            e = min(c + piece, k0)
            a[blk, c:e] = t_r @ a[blk, c:e]
            a[c:e, blk] = a[c:e, blk] @ t_c
        rows = max(1, _GTH_PANEL_MNK // (k0 * b))
        for r in range(0, k0, rows):
            a[r:r + rows, :k0] += a[r:r + rows, blk] @ a[blk, :k0]
        k1 = k0
    for k in range(k1 - 1, 0, -1):  # the leading block, state by state
        s = float(a[k, :k].sum())
        if s <= 0.0:
            raise ValueError(_REDUCIBLE)
        a[:k, k] /= s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    pi /= pi.sum()
    residual = float(np.max(np.abs(pi @ p - pi)))
    if not residual <= 1e-10:  # a NaN residual is refused too
        raise ValueError(f"stationary solve residual {residual:.3e} "
                         "exceeds tolerance; use stationary_tree")
    return pi


def gibbs_distribution(game: CapGame, tau: float) -> np.ndarray:
    """pi(a) proportional to exp(phi(a)/tau) on the normalized potential
    scale (the scale utilities live on), computed with a max shift;
    indexed like ``enumerate_profiles(game)``.

    This closed form is the exact stationary law of the one-slot kernel:
    proposals are symmetric and the acceptance ratio gives detailed balance.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    table = _table(game)
    x = table.phi / tau
    x -= x.max()
    w = np.exp(x)
    return w / w.sum()


def _in_trees(edges: np.ndarray, root: int):
    """Yield parent maps of spanning trees directed toward ``root``.

    A parent map assigns every non-root node its next hop along an edge of
    the boolean matrix ``edges`` (edges[v, p]: v may hop to p); acyclic maps
    are exactly the in-trees.  Enumeration is factorial, hence the state
    cap, which raises on the first iteration.
    """
    n = len(edges)
    if n > _TREE_STATE_CAP:
        raise ValueError(f"tree enumeration capped at {_TREE_STATE_CAP} "
                         f"states, got {n}")
    nodes = [v for v in range(n) if v != root]
    choices = [[p for p in range(n) if p != v and edges[v, p]] for v in nodes]
    for combo in itertools.product(*choices):
        parent = dict(zip(nodes, combo))
        ok = True
        for v in nodes:
            seen = set()
            cur = v
            while cur != root:
                if cur in seen:
                    ok = False
                    break
                seen.add(cur)
                cur = parent[cur]
            if not ok:
                break
        if ok:
            yield parent


def stationary_tree(p) -> np.ndarray:
    """Markov-chain tree theorem for the row-stochastic matrix ``p``: pi_c
    proportional to the sum over in-trees rooted at c of the product of
    edge probabilities; indexed like p's rows.

    Exponential-cost cross-check oracle; rejects chains beyond
    8 states.
    """
    p = _check_chain(p)
    n = len(p)
    weights = np.zeros(n)
    for root in range(n):
        total = 0.0
        for parent in _in_trees(p > 0, root):
            prod = 1.0
            for v, pa in parent.items():
                prod *= p[v, pa]
                if prod == 0.0:
                    break
            total += prod
        weights[root] = total
    s = weights.sum()
    if s <= 0:
        raise ValueError("all spanning trees have zero weight; "
                         "chain is not irreducible")
    return weights / s


# ----------------------------------------------------------------------
# stochastic stability


def _tau_grid(tau_grid) -> list:
    """The grid as floats: refused unless non-empty, every tau positive
    and, with two or more, strictly decreasing."""
    taus = [float(t) for t in tau_grid]
    if not taus:
        raise ValueError("tau_grid must be non-empty")
    if not all(t > 0 for t in taus):
        raise ValueError("tau must be positive")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau_grid must be strictly decreasing")
    return taus


def stochastically_stable_states(game: CapGame, tau_grid) -> tuple:
    """States keeping non-vanishing stationary mass along a decreasing
    temperature grid.

    Threshold: mass at the smallest tau at least 0.5 / (brute-force optimum
    count).  Warns when a selected state's mass is not non-decreasing along
    the grid (grid likely too coarse).  Returns sorted channel tuples.
    """
    taus = _tau_grid(tau_grid)
    threshold = 0.5 / len(brute_force_optimum(game).keys)
    masses = np.stack([gibbs_distribution(game, t) for t in taus])
    selected = np.nonzero(masses[-1] >= threshold)[0]
    for k in selected:
        col = masses[:, k]
        if np.any(np.diff(col) < -1e-12):
            warnings.warn(f"stable-state mass for state {k} is not "
                          "monotone along the grid; consider a finer "
                          "tau_grid", stacklevel=2)
    return _keys(_table(game).channels[selected])


# ----------------------------------------------------------------------
# resistances


def game_resistance_kernel(game: CapGame) -> np.ndarray:
    """The profile chain's float64 (n, n) resistance matrix, rows and
    columns in ``enumerate_profiles`` order.

    The resistance of a move is the positive part of its utility drop, the
    exponential cost of accepting it.  Pairs no single switch connects get
    resistance +inf.
    """
    n = _profile_count(game.num_channels, len(game.active_players),
                       _DENSE_GUARD, "dense kernel")
    frm, to, drop = _moves(game)
    res = np.full((n, n), np.inf)
    res[frm, to] = np.maximum(drop, 0.0)
    return res


@dataclass
class MinTreeReport:
    """Outcome of the minimum-resistance in-tree scan."""

    passes: bool              # every minimum tree has a zero-resistance edge
    min_resistance: float
    witness_root: int
    witness_edges: list       # (from_state, to_state, resistance) triples
    num_min_trees: int


def min_resistance_tree_check(resistances: np.ndarray) -> MinTreeReport:
    """Enumerate all rooted spanning in-trees over the resistance graph,
    whose edges are the finite resistances, find the minimum total
    resistance, and verify every minimizing tree contains at least one
    (near-)zero-resistance edge.  Resistances are decay rates: each entry
    is non-negative, or +inf for a missing edge."""
    res = np.asarray(resistances, dtype=np.float64)
    if res.ndim != 2 or res.shape[0] != res.shape[1] or res.size == 0:
        raise ValueError("resistance matrix must be a non-empty square")
    if not res.min() >= 0.0:  # True for NaN
        raise ValueError("resistances must be non-negative or +inf")
    n = len(res)
    edges = np.isfinite(res)

    best = math.inf
    min_trees = []  # (root, parent map)
    for root in range(n):
        for parent in _in_trees(edges, root):
            total = sum(res[v, pa] for v, pa in parent.items())
            if total < best - 1e-12:
                best = total
                min_trees = [(root, dict(parent))]
            elif abs(total - best) <= 1e-12:
                min_trees.append((root, dict(parent)))
    if not min_trees:
        raise ValueError("no spanning in-tree exists on the finite "
                         "resistances")

    passes = all(any(res[v, pa] <= _ZERO_RES_TOL for v, pa in parent.items())
                 for _, parent in min_trees)
    w_root, w_parent = min_trees[0]
    edges = [(v, pa, float(res[v, pa])) for v, pa in sorted(w_parent.items())]
    return MinTreeReport(passes=passes, min_resistance=float(best),
                         witness_root=w_root,
                         witness_edges=edges, num_min_trees=len(min_trees))


# ----------------------------------------------------------------------
# resistance algebra
#
# A positive function of tau is modeled as a finite sum of terms
# g(tau) * exp(-R/tau) with sub-exponential g.  Only the R values are
# tracked; g is never evaluated.


@dataclass(frozen=True)
class ResistanceExpr:
    terms: tuple      # each term's resistance R, finite

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("expression needs at least one term")
        if not all(math.isfinite(r) for r in self.terms):
            raise ValueError("term resistance must be finite")

    @property
    def resistance(self) -> float:
        """Slowest decay rate wins: min over term resistances."""
        return min(self.terms)


def res_of_const() -> ResistanceExpr:
    """A positive constant (or any sub-exponential factor): resistance 0."""
    return ResistanceExpr((0.0,))


def res_of_exp(kappa: float) -> ResistanceExpr:
    """exp(-kappa/tau): resistance kappa."""
    return ResistanceExpr((float(kappa),))


def res_add(e1: ResistanceExpr, e2: ResistanceExpr) -> ResistanceExpr:
    return ResistanceExpr(e1.terms + e2.terms)


def res_sub(e1: ResistanceExpr, e2: ResistanceExpr) -> ResistanceExpr:
    """f1 - f2 keeps f1's decay rate only when f1 dominates; otherwise the
    difference's sign and rate are indeterminate at this level."""
    if not e1.resistance < e2.resistance:
        raise ValueError("difference resistance is undefined unless the "
                         "minuend decays strictly slower "
                         f"({e1.resistance} vs {e2.resistance})")
    return ResistanceExpr((e1.resistance,))


def res_mul(e1: ResistanceExpr, e2: ResistanceExpr) -> ResistanceExpr:
    return ResistanceExpr(tuple(a + b for a in e1.terms for b in e2.terms))


def res_inv(e: ResistanceExpr) -> ResistanceExpr:
    """1/f for a single-term f with nonzero resistance."""
    if len(e.terms) != 1:
        raise ValueError("inverse is defined for single-term expressions only")
    if e.terms[0] == 0.0:
        raise ValueError("inverse requires a nonzero resistance")
    return ResistanceExpr((-e.terms[0],))


def empirical_resistance(f, tau_grid) -> float:
    """Estimate the decay rate of a positive function from samples.

    Fits -tau * ln f(tau) linearly in tau and reports the tau -> 0
    intercept.  A large fit residual means the sub-exponential factor still
    dominates on the given grid; that triggers a warning, not an error.
    """
    taus = np.asarray(sorted(float(t) for t in tau_grid))
    if len(taus) < 2:
        raise ValueError("tau_grid needs at least two points")
    vals = np.array([float(f(t)) for t in taus])
    if not 0.0 < vals.min() <= vals.max() < np.inf:  # False for NaN
        raise ValueError("f must be finite and positive on the grid")
    y = -taus * np.log(vals)
    slope, intercept = np.polyfit(taus, y, 1)
    resid = float(np.max(np.abs(intercept + slope * taus - y)))
    if resid > _FIT_RESIDUAL_TOL:
        warnings.warn(f"empirical resistance fit residual {resid:.3e} "
                      "exceeds tolerance; grid may be too coarse for the "
                      "sub-exponential factor", stacklevel=2)
    return float(intercept)
