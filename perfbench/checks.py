"""Output checks of the three workloads against the benchmark's references.

Each check takes one operation's input and its serialized output and returns
a list of problems; an empty list means the output is correct.  Nothing here
compares against rabispec.oracle or a stored copy of earlier output.
"""
from __future__ import annotations

import functools

import numpy as np

import reference as ref

# assembled level vs reference eigenvalue: acceptance criterion 2's tolerance
# for Wronskian roots; near g = 2.5 the roots are off by up to 1.7e-7
LEVEL_TOL = 1e-6
LOCUS_TOL = 1e-8        # scanned locus point vs closed-form root
EXCEPTIONAL_TOL = 1e-6  # exceptional energy vs nearest reference eigenvalue
ENERGY_FORM_TOL = 1e-12
STATE_TOL = 1e-8        # ||H v - E v|| of a reconstructed state
CROSSING_G_RANGE = (1e-3, 2.0)   # find_crossings' default search range


@functools.lru_cache(maxsize=None)
def _eigenvalues(g, delta, eps, e_min, e_max):
    return ref.eigenvalues(g, delta, eps, e_min, e_max)


def _near(g, delta, eps, energy, radius=EXCEPTIONAL_TOL):
    return _eigenvalues(g, delta, eps, energy - radius, energy + radius)


def check_levels(levels, g, delta, eps, window):
    """The levels, each repeated by its degeneracy, are the reference
    eigenvalues in the window, one for one."""
    expanded = sorted(e for e, deg, *_ in levels for _ in range(deg))
    want = _eigenvalues(g, delta, eps, *window)
    if len(expanded) != want.size:
        return [f"(g={g}, delta={delta}, eps={eps}): {len(expanded)} levels "
                f"with degeneracy, reference has {want.size}"]
    if want.size:
        worst = float(np.max(np.abs(np.array(expanded) - want)))
        if worst > LEVEL_TOL:
            return [f"(g={g}, delta={delta}, eps={eps}): a level is {worst:.2e} "
                    f"from its reference eigenvalue"]
    return []


def _check_points(points, delta, eps=None, g=None):
    """Every exceptional point has the energy N - g^2 +- eps, the template's
    fixed parameters, and a reference eigenvalue within 1e-6."""
    problems = []
    for N, branch, pg, pd, pe, energy in points:
        if pd != delta or (eps is not None and pe != eps) or (g is not None and pg != g):
            problems.append(f"({N}, {branch}) at (g={pg}, delta={pd}, eps={pe}) "
                            f"is off the scanned line")
            continue
        if abs(energy - ref.exceptional_energy(N, branch, pg, pe)) > ENERGY_FORM_TOL:
            problems.append(f"({N}, {branch}) at g={pg}: energy {energy} is not N - g^2 +- eps")
        if _near(pg, pd, pe, energy).size == 0:
            problems.append(f"({N}, {branch}) at (g={pg}, eps={pe}): no reference "
                            f"eigenvalue within {EXCEPTIONAL_TOL} of {energy}")
    return problems


def _check_complete(points, axis, roots_of, lo, hi):
    """The N = 1 and N = 2 points are exactly the closed-form roots in range."""
    problems = []
    for N in (1, 2):
        for branch in ("plus", "minus"):
            got = sorted(pt[2] if axis == "g" else pt[4] for pt in points
                         if pt[0] == N and pt[1] == branch)
            want = roots_of(N, branch, lo, hi)
            # a root within LOCUS_TOL of a range end may fall either side
            inner = [w for w in want if lo + LOCUS_TOL < w < hi - LOCUS_TOL]
            unmatched = list(got)
            for w in want:
                hit = [x for x in unmatched if abs(x - w) <= LOCUS_TOL]
                if hit:
                    unmatched.remove(hit[0])
                elif w in inner:
                    problems.append(f"({N}, {branch}): locus point at {axis}={w!r} missing")
            for x in unmatched:
                problems.append(f"({N}, {branch}): point at {axis}={x!r} is not "
                                f"on the closed-form locus")
    return problems


def check_spectra(op, out):
    return check_levels(out["levels"], op["g"], op["delta"], op["epsilon"],
                        tuple(op["window"]))


def oracle_assisted(out):
    """Number of levels the analytic path missed and the oracle filled in."""
    return sum(1 for lv in out["levels"] if lv[2] == "oracle-assisted")


def check_sweep(op, out):
    delta, eps = op["delta"], op["epsilon"]
    g_lo, g_hi = op["g_range"]
    window = tuple(op["window"])
    problems = []
    if out["failures"]:
        problems.append(f"{out['failures']} sweep points failed")
    axis = np.linspace(g_lo, g_hi, op["steps"])
    got = np.array(out["axis_values"])
    if got.size != axis.size or np.max(np.abs(got - axis)) > 1e-12:
        problems.append("axis values are not the requested grid")
        return problems
    for g, levels in zip(out["axis_values"], out["levels"]):
        problems += check_levels(levels, g, delta, eps, window)
    markers = out["markers"]
    problems += _check_points(markers, delta, eps=eps)
    problems += _check_complete(
        markers, "g", lambda N, b, lo, hi: ref.loci_along_g(N, b, delta, eps, lo, hi),
        g_lo, g_hi)
    problems += check_groups(out["groups"], markers, delta, eps, window)
    return problems


def check_groups(groups, markers, delta, eps, window):
    """Marker groups cover the in-window markers; a group is degenerate only
    where 2 eps is an integer, and never more than the reference spectrum."""
    problems = []
    in_window = sum(1 for m in markers if window[0] <= m[5] <= window[1])
    if sum(grp[2] for grp in groups) != in_window:
        problems.append(f"groups hold {sum(grp[2] for grp in groups)} markers, "
                        f"{in_window} lie in the window")
    integer = abs(2.0 * eps - round(2.0 * eps)) < 1e-12
    for g, energy, degeneracy, _ in groups:
        count = _near(g, delta, eps, energy).size
        if degeneracy > 1 and not integer:
            problems.append(f"degenerate group at g={g} although 2 eps = {2 * eps} "
                            f"is not an integer")
        if count < degeneracy or (not integer and count != 1):
            problems.append(f"group at g={g}, E={energy}: degeneracy {degeneracy}, "
                            f"reference has {count} eigenvalues within {EXCEPTIONAL_TOL}")
    return problems


def check_loci(op, out):
    delta, eps, g = op["delta"], op["epsilon"], op["g"]
    problems = []
    along_g, along_eps = out["along_g"], out["along_eps"]
    problems += _check_points(along_g, delta, eps=eps)
    problems += _check_complete(
        along_g, "g", lambda N, b, lo, hi: ref.loci_along_g(N, b, delta, eps, lo, hi),
        *op["g_range"])
    problems += _check_points(along_eps, delta, g=g)
    problems += _check_complete(
        along_eps, "eps", lambda N, b, lo, hi: ref.loci_along_eps(N, b, g, delta, lo, hi),
        *op["epsilon_range"])
    for (n1, n2), got in zip(op["pairs"], out["crossings"]):
        problems += check_crossing(delta, n1, n2, got)
    n1_points = [pt for pt in along_g + along_eps if pt[0] == 1]
    if len(out["states"]) != len(n1_points):
        problems.append(f"{len(out['states'])} states for {len(n1_points)} N = 1 points")
    for *pt, amps in out["states"]:
        problems += check_state(pt, amps)
    return problems


def check_crossing(delta, n1, n2, got):
    want = ref.crossing(delta, n1, n2, *CROSSING_G_RANGE)
    if want is None:
        if got is not None and not got[5]:
            return [f"({n1}, {n2}): crossing at g={got[3]} where the relation has no root"]
        return []
    eps_star, g_star, energy = want
    if got is None:
        return [f"({n1}, {n2}): no crossing found, reference has g*={g_star}"]
    problems = []
    if got[2] != eps_star:
        problems.append(f"({n1}, {n2}): eps*={got[2]}, want {eps_star}")
    if abs(got[3] - g_star) > LOCUS_TOL:
        problems.append(f"({n1}, {n2}): g*={got[3]!r}, reference {g_star!r}")
    if abs(got[4] - energy) > 1e-9:
        problems.append(f"({n1}, {n2}): E*={got[4]!r}, reference {energy!r}")
    if _near(g_star, delta, eps_star, energy).size < 2:
        problems.append(f"({n1}, {n2}): reference spectrum has no degenerate pair at E*={energy}")
    return problems


def check_state(pt, amps):
    N, branch, g, delta, eps, energy = pt
    amps = np.asarray(amps)
    norm = float(np.linalg.norm(amps))
    r = ref.state_residual(g, delta, eps, ref.exceptional_energy(N, branch, g, eps), amps)
    if abs(norm - 1.0) > 1e-12 or not r <= STATE_TOL:
        return [f"state ({N}, {branch}) at g={g}, eps={eps}: norm {norm}, "
                f"||Hv - Ev|| = {r:.2e}"]
    return []


CHECKS = {"assemble": check_spectra, "sweep": check_sweep, "loci": check_loci}


def check(op, out):
    return CHECKS[op["kind"]](op, out)
