"""Naive direct-summation reference implementations used by the tests.

Everything is written with explicit loops over units, periods, and time
pairs, mirroring the estimator formulas term by term, with derivative
expressions coded here independently of the package.  The vectorized
package implementations must match these on small panels to 1e-10.
"""

import csv
import math

import numpy as np
from scipy import special, stats

from ccepanel import Panel, PanelFormatError
from ccepanel.likelihood import _log_expit


def derivs(family: str, y, z, order: int):
    """Closed-form log-density derivatives, written independently."""
    if family == "logit":
        p = special.expit(z)
        if order == 1:
            return y - p
        if order == 2:
            return -p * (1 - p)
        if order == 3:
            return -p * (1 - p) * (1 - 2 * p)
        if order == 4:
            return -(p * (1 - p) * (1 - 2 * p) ** 2 - 2 * (p * (1 - p)) ** 2)
    if family == "poisson":
        if order == 1:
            return y / z - 1.0
        if order == 2:
            return -y / z**2
        if order == 3:
            return 2.0 * y / z**3
        if order == 4:
            return -6.0 * y / z**4
    if family == "gaussian":
        if order == 1:
            return 2.0 * (y - z)
        if order == 2:
            return -2.0 + 0.0 * (y + z)
        return 0.0 * (y + z)
    if family == "probit":
        pdf, cdf = stats.norm.pdf(z), stats.norm.cdf(z)
        ratio_p = pdf / cdf
        ratio_m = pdf / (1 - cdf)
        if order == 1:
            return np.where(y == 1, ratio_p, -ratio_m)
        h = 1e-5
        return (
            derivs(family, y, z + h, order - 1) - derivs(family, y, z - h, order - 1)
        ) / (2 * h)
    raise ValueError(family)


def probit_derivs_mp(y, z, order: int):
    """Probit log-density derivatives at 50 digits (mpmath differentiation
    of log Phi(+-z)); unlike ``derivs`` accurate at every order and in the
    far tails."""
    import mpmath

    out = []
    with mpmath.workdps(50):
        for yi, zi in zip(np.ravel(y), np.ravel(z)):
            sign = 1 if yi == 1 else -1
            fn = lambda s: mpmath.log(mpmath.ncdf(sign * s))  # noqa: E731
            out.append(float(mpmath.diff(fn, mpmath.mpf(float(zi)), order)))
    return np.reshape(out, np.shape(z))


def binary_log_density_two_branch(family: str, y, z):
    """y log G(z) + (1 - y) log G(-z), both branches at every cell, through
    the package's log-CDF calls: the reference its one-evaluation binary
    density must reproduce float for float."""
    log_cdf = _log_expit if family == "logit" else special.log_ndtr
    return y * log_cdf(z) + (1.0 - y) * log_cdf(-z)


def _logphi_derivs(z):
    """psi_1..psi_4, the derivatives of log Phi, from the hazard
    h = phi / Phi and its recursion h' = -z h - h^2, in the package's
    floating-point operations so that comparisons can be exact."""
    h = np.exp((-0.5 * z * z - 0.5 * math.log(2.0 * math.pi)) - special.log_ndtr(z))
    d2 = -h * (z + h)
    zh = z + 2.0 * h
    d3 = -h - zh * d2
    return h, d2, d3, -2.0 * d2 - 2.0 * d2 * d2 - zh * d3


def probit_derivs_two_branch(y, z, order: int):
    """y psi_j(z) + (1 - y) (-1)^j psi_j(-z), both branches at every cell."""
    pos, neg = _logphi_derivs(z)[order - 1], _logphi_derivs(-z)[order - 1]
    return y * pos + (1.0 - y) * (neg * (-1.0) ** order)


def log_density(family: str, y, z):
    if family == "logit":
        p = special.expit(z)
        return y * np.log(p) + (1 - y) * np.log(1 - p)
    if family == "poisson":
        return y * np.log(z) - z - special.gammaln(y + 1)
    if family == "gaussian":
        return -((y - z) ** 2)
    if family == "probit":
        c = stats.norm.cdf(z)
        return y * np.log(c) + (1 - y) * np.log(1 - c)
    raise ValueError(family)


def response_curve(family: str, z, order: int):
    """Response mean (order 0) and its derivatives, independent formulas."""
    if family in ("poisson", "gaussian"):
        if order == 0:
            return z
        if order == 1:
            return 1.0 + 0.0 * z
        return 0.0 * z
    if family == "logit":
        p = special.expit(z)
        if order == 0:
            return p
        if order == 1:
            return p * (1 - p)
        if order == 2:
            return p * (1 - p) * (1 - 2 * p)
        if order == 3:
            g = p * (1 - p)
            return g * (1 - 2 * p) ** 2 - 2 * g * g
    if family == "probit":
        if order == 0:
            return stats.norm.cdf(z)
        if order == 1:
            return stats.norm.pdf(z)
        if order == 2:
            return -z * stats.norm.pdf(z)
        if order == 3:
            return (z * z - 1) * stats.norm.pdf(z)
    raise ValueError(family)


def bartlett(lag: int, bandwidth: int) -> float:
    if bandwidth == 0:
        return 1.0 if lag == 0 else 0.0
    return max(0.0, 1.0 - abs(lag) / bandwidth)


def objective(family, y, x, f, beta, lam):
    n, t, _ = x.shape
    total = 0.0
    for i in range(n):
        for s in range(t):
            z = float(x[i, s] @ beta + lam[i] @ f[s])
            total += float(log_density(family, y[i, s], z))
    return total / (n * t)


def score_blocks(family, y, x, f, beta, lam):
    """Scaled score: beta block /(NT), loading blocks /T."""
    n, t, k = x.shape
    r = f.shape[1]
    z = np.empty((n, t))
    for i in range(n):
        for s in range(t):
            z[i, s] = x[i, s] @ beta + lam[i] @ f[s]
    l1 = derivs(family, y, z, 1)
    g_beta = np.zeros(k)
    g_lam = np.zeros((n, r))
    for i in range(n):
        for s in range(t):
            g_beta += l1[i, s] * x[i, s]
            g_lam[i] += l1[i, s] * f[s]
    return g_beta / (n * t), g_lam / t


def beta_bias(family, y, x, f, psi, beta, lam, bandwidth):
    """Every hat quantity of the coefficient bias correction, by loops."""
    n, t, k = x.shape
    r = f.shape[1]
    z = np.empty((n, t))
    for i in range(n):
        for s in range(t):
            z[i, s] = x[i, s] @ beta + lam[i] @ f[s]
    l1 = derivs(family, y, z, 1)
    l2 = derivs(family, y, z, 2)
    l3 = derivs(family, y, z, 3)

    a_i = np.zeros((n, r, r))
    b_i = np.zeros((n, k, r))
    for i in range(n):
        for s in range(t):
            a_i[i] += l2[i, s] * np.outer(f[s], f[s]) / t
            b_i[i] += l2[i, s] * np.outer(x[i, s], f[s]) / t
    a_inv = np.array([np.linalg.inv(a_i[i]) for i in range(n)])

    xdot = np.zeros((n, t, k))
    for i in range(n):
        ba = b_i[i] @ a_inv[i]
        for s in range(t):
            xdot[i, s] = x[i, s] - ba @ f[s]

    delta = np.zeros((k, k))
    for i in range(n):
        for s in range(t):
            delta += l2[i, s] * np.outer(xdot[i, s], xdot[i, s]) / (n * t)

    ftf = np.zeros((r, r))
    for s in range(t):
        ftf += np.outer(f[s], f[s])
    gamma_i = np.zeros((n, k, r))
    e_hat = np.zeros((n, t, k))
    for i in range(n):
        fx = np.zeros((r, k))
        for s in range(t):
            fx += np.outer(f[s], x[i, s])
        gamma_i[i] = (np.linalg.solve(ftf, fx)).T
        for s in range(t):
            e_hat[i, s] = x[i, s] - gamma_i[i] @ f[s]

    q_i = np.zeros((n, r, r))
    for i in range(n):
        for s in range(t):
            for u in range(t):
                w = bartlett(s - u, bandwidth)
                if w:
                    q_i[i] += l1[i, s] * l1[i, u] * np.outer(f[s], f[u]) * w / t

    upsilon = psi.T
    c_t = np.zeros((t, k, r))
    d_tj = np.zeros((t, k, r, r))
    g_tj = np.zeros((t, k, r, r))
    for s in range(t):
        for i in range(n):
            c_t[s] += l2[i, s] * np.outer(xdot[i, s], lam[i]) / n
            ba = b_i[i] @ a_inv[i]
            for j in range(k):
                d_tj[s, j] += np.outer(lam[i], ba[j]) * l2[i, s] / n
                g_tj[s, j] += l3[i, s] * xdot[i, s, j] * np.outer(lam[i], lam[i]) / n

    b1 = np.zeros(k)
    for i in range(n):
        m = a_inv[i] @ q_i[i] @ a_inv[i]
        for s in range(t):
            b1 += -0.5 * l3[i, s] * xdot[i, s] * float(f[s] @ m @ f[s]) / (n * t)
    # information form: the score outer product replaced by -A_i
    b1_info = np.zeros(k)
    for i in range(n):
        for s in range(t):
            b1_info += -0.5 * l3[i, s] * xdot[i, s] * float(f[s] @ -a_inv[i] @ f[s]) / (n * t)

    b2 = np.zeros(k)
    for i in range(n):
        for s in range(t):
            for u in range(t):
                w = bartlett(s - u, bandwidth)
                if w:
                    b2 += (
                        l2[i, s] * l1[i, u] * xdot[i, s]
                        * float(f[s] @ a_inv[i] @ f[u]) * w / (n * t)
                    )

    d1 = np.zeros(k)
    for i in range(n):
        for s in range(t):
            d1 += -l2[i, s] * xdot[i, s] * float(e_hat[i, s] @ upsilon.T @ lam[i]) / (n * t)

    d2 = np.zeros(k)
    for j in range(k):
        acc = 0.0
        for i in range(n):
            for s in range(t):
                mid = upsilon.T @ (d_tj[s, j] - 0.5 * g_tj[s, j]) @ upsilon
                acc += np.trace(np.outer(e_hat[i, s], e_hat[i, s]) @ mid)
        d2[j] = acc / (n * t)

    return {
        "A_i": a_i, "B_i": b_i, "xdot": xdot, "Delta": delta, "Q_i": q_i,
        "Gamma_i": gamma_i, "e_hat": e_hat, "Upsilon": upsilon, "C_t": c_t,
        "D_tj": d_tj, "G_tj": g_tj, "b1": b1, "b1_info": b1_info, "b2": b2, "d1": d1, "d2": d2,
        "l1": l1, "l2": l2, "l3": l3, "A_inv": a_inv, "z": z,
    }


def ape_bias(family, y, x, f, psi, beta, lam, x0, x1, bandwidth, bb=None):
    """APE bias pieces by loops; ``bb`` reuses a beta_bias dict."""
    n, t, k = x.shape
    r = f.shape[1]
    if bb is None:
        bb = beta_bias(family, y, x, f, psi, beta, lam, bandwidth)
    l1, l2, l3, a_inv = bb["l1"], bb["l2"], bb["l3"], bb["A_inv"]

    c_grid = np.empty((n, t))
    for i in range(n):
        for s in range(t):
            c_grid[i, s] = lam[i] @ f[s]
    d_c = np.empty((n, t))
    d_cc = np.empty((n, t))
    d_beta = np.empty((n, t, k))
    for i in range(n):
        for s in range(t):
            z0 = beta @ x0 + c_grid[i, s]
            z1 = beta @ x1 + c_grid[i, s]
            d_c[i, s] = response_curve(family, z1, 1) - response_curve(family, z0, 1)
            d_cc[i, s] = response_curve(family, z1, 2) - response_curve(family, z0, 2)
            d_beta[i, s] = response_curve(family, z1, 1) * x1 - response_curve(family, z0, 1) * x0

    gamma_i = np.zeros((n, r))
    for i in range(n):
        for s in range(t):
            gamma_i[i] += d_c[i, s] * f[s] / t
    gamma_t = np.zeros((t, r))
    for s in range(t):
        for i in range(n):
            gamma_t[s] += d_c[i, s] * lam[i] / n
    gamma = d_beta.mean(axis=(0, 1)).copy()
    for i in range(n):
        gamma -= bb["B_i"][i] @ a_inv[i] @ gamma_i[i] / n

    r_t = np.zeros((t, r, r))
    w_t = np.zeros((t, r, r))
    for s in range(t):
        for i in range(n):
            r_t[s] += np.outer(lam[i], gamma_i[i] @ a_inv[i]) * l2[i, s] / n
            # both second-order terms carry 1/2 (see bias.compute_ape_bias)
            w_t[s] += (
                (0.5 * d_cc[i, s] - 0.5 * l3[i, s] * float(gamma_i[i] @ a_inv[i] @ f[s]))
                * np.outer(lam[i], lam[i]) / n
            )

    b3 = 0.0
    for i in range(n):
        m = a_inv[i] @ bb["Q_i"][i] @ a_inv[i]
        for s in range(t):
            b3 += (
                (0.5 * d_cc[i, s] - 0.5 * l3[i, s] * float(gamma_i[i] @ a_inv[i] @ f[s]))
                * float(f[s] @ m @ f[s]) / (n * t)
            )
    b3_info = 0.0
    for i in range(n):
        for s in range(t):
            b3_info += (
                (0.5 * d_cc[i, s] - 0.5 * l3[i, s] * float(gamma_i[i] @ a_inv[i] @ f[s]))
                * float(f[s] @ -a_inv[i] @ f[s]) / (n * t)
            )

    b4 = 0.0
    for i in range(n):
        for s in range(t):
            for u in range(t):
                w = bartlett(s - u, bandwidth)
                if w:
                    b4 += (
                        l2[i, s] * l1[i, u]
                        * float(gamma_i[i] @ a_inv[i] @ f[s])
                        * float(f[s] @ a_inv[i] @ f[u]) * w / (n * t)
                    )

    d3 = 0.0
    for i in range(n):
        for s in range(t):
            d3 -= (
                float(gamma_i[i] @ a_inv[i] @ f[s])
                * float(lam[i] @ bb["Upsilon"] @ (l2[i, s] * bb["e_hat"][i, s]))
                / (n * t)
            )

    d4 = 0.0
    for i in range(n):
        for s in range(t):
            mid = bb["Upsilon"].T @ (w_t[s] - r_t[s]) @ bb["Upsilon"]
            d4 += np.trace(mid @ np.outer(bb["e_hat"][i, s], bb["e_hat"][i, s])) / (n * t)

    return {
        "gamma": gamma, "gamma_i": gamma_i, "gamma_t": gamma_t,
        "R_t": r_t, "W_t": w_t, "b3": b3, "b3_info": b3_info, "b4": b4, "d3": d3, "d4": d4,
        "d_c": d_c, "d_cc": d_cc, "d_beta": d_beta, "bb": bb,
    }


def omega(family, y, x, f, psi, beta, lam, bandwidth, bb=None):
    """Long-run variance of the coefficient influence scores, triple loop."""
    n, t, k = x.shape
    if bb is None:
        bb = beta_bias(family, y, x, f, psi, beta, lam, bandwidth)
    w = np.zeros((n, t, k))
    for i in range(n):
        for s in range(t):
            w[i, s] = bb["l1"][i, s] * bb["xdot"][i, s] + bb["C_t"][s] @ (
                bb["Upsilon"] @ bb["e_hat"][i, s]
            )
    out = np.zeros((k, k))
    for i in range(n):
        for s in range(t):
            for u in range(t):
                kw = bartlett(s - u, bandwidth)
                if kw:
                    out += kw * np.outer(w[i, s], w[i, u]) / (n * t)
    return out, w


def sigma2(family, y, x, f, psi, beta, lam, x0, x1, bandwidth):
    """APE influence long-run variance, triple loop."""
    n, t, _ = x.shape
    bb = beta_bias(family, y, x, f, psi, beta, lam, bandwidth)
    ab = ape_bias(family, y, x, f, psi, beta, lam, x0, x1, bandwidth, bb=bb)
    _, w = omega(family, y, x, f, psi, beta, lam, bandwidth, bb=bb)
    delta_inv_gamma = np.linalg.solve(bb["Delta"], ab["gamma"])
    v = np.zeros((n, t))
    for i in range(n):
        for s in range(t):
            v[i, s] = (
                float(delta_inv_gamma @ w[i, s])
                + float((ab["R_t"][s] @ f[s] - ab["gamma_t"][s]) @ (bb["Upsilon"] @ bb["e_hat"][i, s]))
                + bb["l1"][i, s] * float(ab["gamma_i"][i] @ bb["A_inv"][i] @ f[s])
            )
    total = 0.0
    for i in range(n):
        for s in range(t):
            for u in range(t):
                kw = bartlett(s - u, bandwidth)
                if kw:
                    total += kw * v[i, s] * v[i, u] / (n * t)
    return total


def random_panel(rng, family: str, n, t, k, r):
    """Small random panel + factors + parameter point for oracle tests.

    Poisson draws keep the index strictly positive.
    """
    # poisson: keep every term positive so the index stays in-domain
    f = rng.uniform(0.5, 1.5, size=(t, r)) if family == "poisson" else rng.standard_normal((t, r))
    psi_raw = rng.standard_normal((k, r))
    psi, _ = np.linalg.qr(psi_raw)
    if family == "poisson":
        x = rng.uniform(0.5, 1.5, size=(n, t, k))
        beta = rng.uniform(0.2, 0.5, size=k)
        lam = rng.uniform(0.5, 1.0, size=(n, r))
        z = np.einsum("ntk,k->nt", x, beta) + lam @ f.T
        y = rng.poisson(z).astype(float)
    else:
        x = rng.standard_normal((n, t, k))
        beta = rng.standard_normal(k) * 0.5
        lam = rng.standard_normal((n, r)) * 0.8
        z = np.einsum("ntk,k->nt", x, beta) + lam @ f.T
        if family == "gaussian":
            y = z + rng.standard_normal((n, t))
        else:
            p = special.expit(z) if family == "logit" else stats.norm.cdf(z)
            y = (rng.uniform(size=(n, t)) < p).astype(float)
    return y, x, f, psi, beta, lam


def read_panel_csv_rows(path):
    """The row-by-row CSV reader: one ``float`` per field, one dict entry
    per cell, then a Python loop that fills the arrays.  The package's
    column-wise reader must return the same arrays bit for bit and raise
    the same ``PanelFormatError`` text.

    It is the package's former reader with three defects mended, as in the
    package: a NaN or infinite field is a row error (it used to surface as
    ``Panel``'s "non-finite cells" error), periods that are all numbers
    sort by value and then by label (``sorted(set, key=float)`` left equal
    values such as ``1`` and ``01`` in hash order), and a row the csv
    module cannot read (a field over its size limit) is a row error (it
    used to escape as ``csv.Error``)."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise PanelFormatError(f"cannot read panel file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelFormatError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise PanelFormatError(f"{path}: row 1 cannot be read: {exc}") from None
        header = [h.strip() for h in header]
        if len(header) < 4 or header[0] != "id" or header[1] != "time" or header[2] != "y":
            raise PanelFormatError(
                f"{path}: header must be 'id,time,y,x1,...,xk', got {header!r}"
            )
        k = len(header) - 3
        expected_x = [f"x{j}" for j in range(1, k + 1)]
        if header[3:] != expected_x:
            raise PanelFormatError(
                f"{path}: covariate columns must be {expected_x}, got {header[3:]}"
            )

        unit_order: list[str] = []
        unit_index: dict[str, int] = {}
        times: set[str] = set()
        cells: dict[tuple[str, str], tuple[float, list[float]]] = {}
        row_no = 1
        try:
            for row_no, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise PanelFormatError(
                        f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}"
                    )
                uid, tlabel = row[0].strip(), row[1].strip()
                try:
                    vals = [float(c) for c in row[2:]]
                except ValueError:
                    raise PanelFormatError(
                        f"{path}: non-numeric field in row {row_no}: {row!r}"
                    ) from None
                if any(math.isinf(v) or math.isnan(v) for v in vals):
                    raise PanelFormatError(f"{path}: non-finite field in row {row_no}: {row!r}")
                key = (uid, tlabel)
                if key in cells:
                    raise PanelFormatError(
                        f"{path}: duplicate cell (id={uid}, time={tlabel}) at row {row_no}"
                    )
                if uid not in unit_index:
                    unit_index[uid] = len(unit_order)
                    unit_order.append(uid)
                times.add(tlabel)
                cells[key] = (vals[0], vals[1:])
        except csv.Error as exc:
            raise PanelFormatError(f"{path}: row {row_no + 1} cannot be read: {exc}") from None

    if not cells:
        raise PanelFormatError(f"{path}: no data rows")

    time_order = _sort_time_labels(times)
    missing = [
        (uid, tl) for uid in unit_order for tl in time_order if (uid, tl) not in cells
    ]
    if missing:
        shown = ", ".join(f"({u},{t})" for u, t in missing[:10])
        more = "" if len(missing) <= 10 else f" and {len(missing) - 10} more"
        raise PanelFormatError(f"{path}: unbalanced panel, missing cells {shown}{more}")

    n, t = len(unit_order), len(time_order)
    y = np.empty((n, t))
    x = np.empty((n, t, k))
    for i, uid in enumerate(unit_order):
        for s, tl in enumerate(time_order):
            yv, xv = cells[(uid, tl)]
            y[i, s] = yv
            x[i, s, :] = xv
    return Panel(y, x)


def _sort_time_labels(labels):
    try:
        values = {label: float(label) for label in labels}
    except ValueError:
        return sorted(labels)
    if any(v != v for v in values.values()):  # NaN has no place in numeric order
        return sorted(labels)
    return sorted(labels, key=lambda label: (values[label], label))


def write_panel_csv_rows(panel, path) -> None:
    """The row-by-row CSV writer: one ``writerow`` per cell; the package's
    block writer must produce the same bytes."""
    k = panel.n_covariates
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "y"] + [f"x{j}" for j in range(1, k + 1)])
        for i in range(panel.n_units):
            for t in range(panel.n_periods):
                # repr of a python float is the shortest exact round trip
                row = [i + 1, t + 1, repr(float(panel.outcomes[i, t]))]
                row += [repr(float(v)) for v in panel.covariates[i, t]]
                writer.writerow(row)
