"""Correctness checks for the documents the benchmark workloads produce.

Every expected value is computed here from the configuration the benchmark
passed to the program (settings, n, seed); no stored output is consulted.
A check returns a list of problems; an empty list means the document passed.

Sampled quantities are tested against their exact binomial distribution at
the 5 sigma level (two-sided tail probability ``erfc(5/sqrt 2)``), with that
level shared over all the sampled tests in one document, so that a correct
document fails with probability below 6e-7 whatever its row count.  The
exact tail replaces the Gaussian band where a series is very skewed: near a
separation of 0 or pi a single trial lies many Gaussian sigmas out.
"""

from __future__ import annotations

import json
import math

FIVE_SIGMA = math.erfc(5.0 / math.sqrt(2.0))
TOL = 1e-12

CANONICAL = {"a": 0.0, "a_prime": math.pi / 2, "b": math.pi / 4, "b_prime": 3 * math.pi / 4}
PAIRS = (("ab", "a", "b"), ("ab_prime", "a", "b_prime"),
         ("a_prime_b", "a_prime", "b"), ("a_prime_b_prime", "a_prime", "b_prime"))
CHSH_SIGNS = (1, -1, 1, 1)
SWEEP_STEP_DEG, SWEEP_ROWS = 0.1, 1801  # sweep --grid 0:180:0.1 --deg


def separation(theta1: float, phi1: float, theta2: float, phi2: float) -> float:
    """Angle between two Bloch axes, accurate near 0 and pi."""
    u = (math.sin(theta1) * math.cos(phi1), math.sin(theta1) * math.sin(phi1), math.cos(theta1))
    v = (math.sin(theta2) * math.cos(phi2), math.sin(theta2) * math.sin(phi2), math.cos(theta2))
    cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    return math.atan2(math.sqrt(sum(c * c for c in cross)), sum(a * b for a, b in zip(u, v)))


def _log_pmf(k: int, n: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_tail(k: int, n: int, p: float) -> float:
    """Probability of a Binomial(n, p) count at least as far from n*p as k, on k's side."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    step = 1 if k >= n * p else -1
    total, j = 0.0, k
    while 0 <= j <= n:
        term = math.exp(_log_pmf(j, n, p))
        total += term
        if term <= total * 1e-17:
            break
        j += step
    return min(1.0, total)


class Problems(list):
    """Collects failed checks; binomial tests are judged together at the end."""

    def __init__(self):
        super().__init__()
        self._binomial = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)

    def close(self, label: str, got: float, want: float, tol: float = TOL) -> None:
        self.expect(abs(got - want) <= tol, f"{label}: got {got!r}, expected {want!r}")

    def binomial(self, label: str, k: int, n: int, p: float) -> None:
        self._binomial.append((label, k, n, p))

    def verdict(self) -> list[str]:
        level = FIVE_SIGMA / 2 / max(1, len(self._binomial))
        for label, k, n, p in self._binomial:
            tail = binomial_tail(k, n, p)
            self.expect(tail > level, f"{label}: count {k} of {n} at p={p:.6g} has tail {tail:.3g}")
        return list(self)


def parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    meta, rows, columns = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(dict(zip(columns, line.split(","))))
    return meta, rows


def _metadata(problems: Problems, meta: dict, command: str, n: int, seed: int) -> None:
    for key, want in (("command", command), ("n", n), ("seed", seed)):
        problems.expect(str(meta.get(key)) == str(want), f"metadata {key}={meta.get(key)!r}, expected {want!r}")


def _chsh_rows(problems: Problems, text: str, n: int, seed: int):
    """Shared CHSH checks; yields (row, separation, estimate, counts) per pair."""
    meta, rows = parse_csv(text)
    _metadata(problems, meta, "chsh", n, seed)
    problems.expect([r.get("pair") for r in rows] == [p[0] for p in PAIRS], "pair rows missing or out of order")
    out = []
    for row, (label, x, y) in zip(rows, PAIRS):
        for side, name in (("a", x), ("b", y)):
            problems.close(f"{label} {side}_theta", float(row[f"{side}_theta"]), CANONICAL[name])
            problems.close(f"{label} {side}_phi", float(row[f"{side}_phi"]), 0.0)
        sep = separation(CANONICAL[x], 0.0, CANONICAL[y], 0.0)
        counts = [int(row[c]) for c in ("n1", "n2", "n3", "n4")]
        problems.expect(sum(counts) == n, f"{label}: counts sum to {sum(counts)}, expected {n}")
        estimate = float(row["estimate"])
        problems.close(f"{label} estimate", estimate, (-counts[0] - counts[1] + counts[2] + counts[3]) / n)
        out.append((label, sep, estimate, counts))
    if len(out) == 4:
        s_value = float(meta.get("s_value", "nan"))
        problems.close("s_value", s_value, sum(s * e for s, (_, _, e, _) in zip(CHSH_SIGNS, out)))
    return meta, out


def check_chsh_hv(text: str, n: int, seed: int) -> list[str]:
    """hv CHSH run: each pair follows -cos(separation); |S| clears 2 by 5 sigma."""
    problems = Problems()
    meta, pairs = _chsh_rows(problems, text, n, seed)
    problems.expect(meta.get("model") == "hv-per-setting", f"model {meta.get('model')!r}")
    variance = 0.0
    for label, sep, _, counts in pairs:
        problems.binomial(f"{label} plus count", counts[2] + counts[3], n, math.sin(sep / 2) ** 2)
        problems.binomial(f"{label} n1 vs n2", counts[0], counts[0] + counts[1], 0.5)
        problems.binomial(f"{label} n3 vs n4", counts[2], counts[2] + counts[3], 0.5)
        variance += math.sin(sep) ** 2 / n
    if len(pairs) == 4:
        s_value = float(meta["s_value"])
        problems.expect(abs(s_value) - 2.0 > 5.0 * math.sqrt(variance),
                        f"|S|={abs(s_value)} does not exceed 2 by 5 sigma")
    return problems.verdict()


def check_chsh_transfer(text: str, n: int, seed: int) -> list[str]:
    """Transfer baseline: each pair follows the ramp -1 + 2 sep/pi; |S| <= 2 + 5 sigma."""
    problems = Problems()
    meta, pairs = _chsh_rows(problems, text, n, seed)
    problems.expect(meta.get("model") == "transfer-baseline", f"model {meta.get('model')!r}")
    variance = 0.0
    for label, sep, _, counts in pairs:
        p_plus = sep / math.pi
        problems.binomial(f"{label} plus count", counts[2] + counts[3], n, p_plus)
        variance += 4.0 * p_plus * (1.0 - p_plus) / n
    if len(pairs) == 4:
        s_value = float(meta["s_value"])
        problems.expect(abs(s_value) <= 2.0 + 5.0 * math.sqrt(variance), f"|S|={abs(s_value)} exceeds 2 + 5 sigma")
    return problems.verdict()


def check_sweep(text: str, n: int, seed: int) -> list[str]:
    """Singlet sweep over 0:180:0.1 degrees: exact and analytic columns are
    -cos theta, the sampled column is a Binomial(n, sin^2(theta/2)) plus count."""
    problems = Problems()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"document is not JSON: {exc}"]
    meta = doc.get("metadata", {})
    _metadata(problems, meta, "sweep", n, seed)
    problems.expect(meta.get("mode") == "singlet", f"mode {meta.get('mode')!r}")
    rows = doc.get("rows", [])
    problems.expect(len(rows) == SWEEP_ROWS, f"{len(rows)} rows, expected {SWEEP_ROWS}")
    for k, (theta, exact, analytic, sampled, _) in enumerate(rows):
        want = k * SWEEP_STEP_DEG * math.pi / 180.0
        problems.close(f"row {k} theta", theta, want)
        problems.close(f"row {k} exact", exact, -math.cos(want))
        problems.close(f"row {k} hv_analytic", analytic, -math.cos(want))
        plus = n * (1.0 + sampled) / 2.0
        problems.expect(abs(plus - round(plus)) < 1e-6, f"row {k}: hv_sampled {sampled!r} is not a count over {n}")
        problems.binomial(f"row {k} hv_sampled", round(plus), n, math.sin(want / 2) ** 2)
    if len(rows) == SWEEP_ROWS:
        problems.expect(rows[0][3] == -1.0, f"hv_sampled at 0 is {rows[0][3]!r}")
        problems.expect(rows[-1][3] == 1.0, f"hv_sampled at pi is {rows[-1][3]!r}")
    return problems.verdict()
