"""Independent checks of zpscan outputs, run after the timed window.

Each check recomputes what an output claims from the inputs alone, with
tools the program does not use: sympy for the exact polynomial algebra,
``mpmath.kleinj`` for j, ``mpmath.polyroots`` for Mahler measures and
``Fraction`` arithmetic for determinants.  None compares with a stored copy of
an earlier output.  Every check returns a list of problems; empty means the
output is right.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

import mpmath as mp

# ---------------------------------------------------------------------------
# shared helpers


def cyclic_subgroup_count(M: int) -> int:
    """Cyclic subgroups of order M in (Z/M)^2, counted by brute force."""
    generators = sum(1 for x in range(M) for y in range(M) if gcd(gcd(x, y), M) == 1)
    units = sum(1 for k in range(1, M + 1) if gcd(k, M) == 1)
    return generators // units


def parse_c(spec) -> mp.mpc:
    """A complex from "re,im" or [re, im] decimal strings, at the current precision."""
    if isinstance(spec, str):
        re, im = spec.split(",")
    else:
        re, im = spec
    return mp.mpc(mp.mpf(re.strip()), mp.mpf(im.strip()))


def klein_j(tau) -> mp.mpc:
    """1728 * mpmath.kleinj, after moving tau into the fundamental domain."""
    for _ in range(10000):
        tau -= int(mp.nint(tau.real))
        if abs(tau) >= 1:
            break
        tau = -1 / tau
    return 1728 * mp.kleinj(tau)


def close(a, b, rel) -> bool:
    return abs(a - b) <= rel * max(1, abs(a), abs(b))


def mahler_height(coeffs) -> mp.mpf:
    """(log|lead| + sum log max(1, |root|)) / degree, roots from mpmath.polyroots."""
    with mp.workdps(60):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(coeffs)], maxsteps=500, extraprec=1000)
        acc = mp.log(abs(mp.mpf(coeffs[-1])))
        for r in roots:
            if abs(r) > 1:
                acc += mp.log(abs(r))
        return acc / (len(coeffs) - 1)


# ---------------------------------------------------------------------------
# scan


def check_phi_table(M: int, coeffs: dict, rng) -> list:
    """Symmetric, monic of degree psi(M), Kronecker's congruence, and Phi_M(j(tau), j(M tau)) = 0."""
    problems = []
    psi = cyclic_subgroup_count(M)
    if any(coeffs.get((j, i), 0) != c for (i, j), c in coeffs.items()):
        problems.append(f"Phi_{M}: not symmetric")
    top = {j: c for (i, j), c in coeffs.items() if i == psi}
    if max(i for i, _ in coeffs) != psi or top != {0: 1}:
        problems.append(f"Phi_{M}: not monic of degree psi({M}) = {psi} in X")
    if M in (2, 3, 5):
        # Phi_p = (X^p - Y)(X - Y^p) mod p
        kron = {(M + 1, 0): 1, (M, M): -1, (1, 1): -1, (0, M + 1): 1}
        if any((coeffs.get(k, 0) - kron.get(k, 0)) % M for k in set(coeffs) | set(kron)):
            problems.append(f"Phi_{M}: breaks Kronecker's congruence mod {M}")
    with mp.workdps(300):
        # a tau the recovery never samples: irrational-looking real part, Im in (1.05, 1.45)
        tau = mp.mpc(mp.mpf(rng.randint(-400, 400)) / 1009, 1 + mp.mpf(rng.randint(50, 450)) / 1013)
        x, y = 1728 * mp.kleinj(tau), 1728 * mp.kleinj(M * tau)
        terms = [c * x ** i * y ** j for (i, j), c in coeffs.items()]
        if abs(mp.fsum(terms)) > mp.mpf(10) ** -100 * mp.fsum(abs(t) for t in terms):
            problems.append(f"Phi_{M}(j(tau), j({M} tau)) != 0 at tau = {mp.nstr(tau, 12)}")
    return problems


def parse_curve(text: str) -> dict:
    """{index: (numerator, denominator)} of ascending integer coefficient lists."""
    maps = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key.startswith("j"):
            num, _, den = rhs.partition("/")
            maps[int(key[1:])] = ([int(c) for c in num.split()], [int(c) for c in den.split()] or [1])
    return maps


def _pairs(spec: str, n: int) -> list:
    if spec == "all":
        return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return [tuple(int(x) for x in chunk.split(",")) for chunk in spec.split(";")]


def _levels(spec: str) -> list:
    if ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


def check_scan(text: str, curve_text: str, levels_spec: str, pairs_spec: str, phis: dict) -> list:
    """Rows against sympy: strata Phi_M(j_a(t), j_b(t)), their gcds, and Mahler heights.

    Single rows must be exactly the non-constant strata and double rows exactly
    the non-trivial gcds of strata on distinct coordinate pairs, so a missing
    row fails as well as a wrong one.
    """
    import sympy as sp

    t, X = sp.symbols("t X")
    data = json.loads(text)
    maps = parse_curve(curve_text)
    poly = {k: (sp.Poly(list(reversed(n)), t), sp.Poly(list(reversed(d)), t)) for k, (n, d) in maps.items()}
    levels = _levels(levels_spec)
    pairs = _pairs(pairs_spec, len(maps))
    problems = []
    if data["exact_levels"] != levels or data["numeric_levels"]:
        problems.append(f"levels {data['exact_levels']} / {data['numeric_levels']}, expected {levels}")

    def primitive(p):
        _, p = p.primitive()
        return -p if p.LC() < 0 else p

    def ascending(p):
        return [int(c) for c in reversed(p.all_coeffs())]

    strata = {}
    for a, b in pairs:
        fa = poly[a][0].as_expr() / poly[a][1].as_expr()
        fb = poly[b][0].as_expr() / poly[b][1].as_expr()
        for M in levels:
            expr = sum(c * fa ** i * fb ** j for (i, j), c in phis[M].coeffs.items())
            num = sp.Poly(sp.fraction(sp.cancel(sp.together(expr)))[0], t)
            if num.is_zero:
                continue  # the curve lies in this stratum
            for den in (poly[a][1], poly[b][1]):  # t where a map is undefined is no point
                while True:
                    g = sp.gcd(num, den)
                    if g.degree() < 1:
                        break
                    num = sp.quo(num, g)
            strata[(a, b, M)] = num

    expected = {}
    for (a, b, M), S in strata.items():
        if S.degree() >= 1:
            expected[((a, b, M), None)] = primitive(sp.sqf_part(S))
    for x, pa in enumerate(pairs):
        for pb in pairs[x + 1 :]:
            if set(pa) == set(pb):
                continue
            for Ma in levels:
                for Mb in levels:
                    Sa, Sb = strata.get(pa + (Ma,)), strata.get(pb + (Mb,))
                    if Sa is None or Sb is None or Sa.degree() < 1 or Sb.degree() < 1:
                        continue
                    g = sp.gcd(Sa, Sb)
                    if g.degree() >= 1:
                        expected[(pa + (Ma,), pb + (Mb,))] = primitive(sp.sqf_part(g))

    rows = data["report"]["rows"]
    got = {}
    for row in rows:
        key = (tuple(row["pair1"]), tuple(row["pair2"]) if row["pair2"] else None)
        if key in got:
            problems.append(f"duplicate row {key}")
        got[key] = row
    for key in sorted(set(expected) - set(got), key=str):
        problems.append(f"missing row {key}")
    for key in sorted(set(got) - set(expected), key=str):
        problems.append(f"unexpected row {key}")
    if data["report"]["points"] != len(rows) or data["report"]["double_strata"] != sum(
        1 for r in rows if r["pair2"]
    ):
        problems.append("report counts disagree with its rows")

    for key in sorted(set(expected) & set(got), key=str):
        row, want = got[key], expected[key]
        coeffs = ascending(want)
        if row["t_minpoly"] != coeffs:
            problems.append(f"row {key}: t_minpoly {row['t_minpoly']}, expected {coeffs}")
            continue
        if row["degree_bound"] != want.degree() or row["numeric_only"]:
            problems.append(f"row {key}: degree_bound/numeric_only wrong")
        if row["M"] != key[0][2] or row["N"] != (key[1][2] if key[1] else None):
            problems.append(f"row {key}: M/N wrong")
        if not _height_ok(row["height_t"], mahler_height(coeffs)):
            problems.append(f"row {key}: height_t {row['height_t']}, expected {mp.nstr(mahler_height(coeffs), 20)}")
        indices = sorted(set(key[0][:2] + (key[1][:2] if key[1] else ())))
        if [i for i, _ in row["heights_j"]] != indices:
            problems.append(f"row {key}: heights_j coordinates {row['heights_j']}")
            continue
        for i, h in row["heights_j"]:
            num, den = poly[i]
            res = sp.Poly(sp.resultant(want.as_expr(), X * den.as_expr() - num.as_expr(), t), X)
            ref = None if res.degree() < 1 else mahler_height(ascending(primitive(sp.sqf_part(res))))
            if (h is None) != (ref is None) or (ref is not None and not _height_ok(h, ref)):
                problems.append(f"row {key}: height of j{i} {h}, expected {ref and mp.nstr(ref, 20)}")
    return problems


def _height_ok(text, ref) -> bool:
    return text is not None and abs(mp.mpf(text) - ref) <= mp.mpf(10) ** -12 * max(1, abs(ref))


# ---------------------------------------------------------------------------
# isogeny


def check_periods(text: str, tau_spec: str, label: str) -> list:
    """det P = 2*pi*i, the reduction really is one, and CM certificates: -4 at i, -3 at rho, none elsewhere.

    tau_reduced is reduced from omega2/omega1 taken at the ambient 53-bit
    precision, so it is compared to 1e-12.
    """
    data = json.loads(text)
    problems = []
    with mp.workdps(40):
        tau = parse_c(tau_spec)
        w1, w2 = (parse_c(v) for v in data["omega"])
        r1, r2 = (parse_c(v) for v in data["eta"])
        if not (close(w1, 1, 1e-28) and close(w2, tau, 1e-28)):
            problems.append("omega is not (1, tau)")
        if not close(w1 * r2 - w2 * r1, 2j * mp.pi, 1e-25):
            problems.append("det P != 2*pi*i")
        a, b, c, d = data["reduction_matrix"]
        red = parse_c(data["tau_reduced"])
        if a * d - b * c != 1 or not close((a * tau + b) / (c * tau + d), red, 1e-12):
            problems.append("tau_reduced is not the image of tau under reduction_matrix")
        if abs(red.real) > 0.5 + 1e-12 or abs(red) < 1 - 1e-12:
            problems.append("tau_reduced is outside the fundamental domain")
    want = {"i": (-4, [1, 0, 1]), "rho": (-3, [1, 1, 1])}.get(label)
    cm = data["cm"]
    got = None if cm is None else (cm["disc"], cm["coeffs"])
    if got != want:
        problems.append(f"CM certificate {got}, expected {want}")
    return problems


def check_isogeny(text: str, tau_spec: str, M: int) -> list:
    """Witness count by brute force, ps - qr = M, a*c = M, and the target j-values against kleinj.

    target_tau is printed with 32 digits but is omega2/omega1 taken at the
    ambient 53-bit precision, so the j-values are compared to 1e-12, which
    still tells every pair of distinct sublattice j-values apart here.
    """
    data = json.loads(text)
    problems = []
    witnesses = data["witnesses"]
    count = cyclic_subgroup_count(M)
    if data["count"] != count or len(witnesses) != count:
        problems.append(f"{len(witnesses)} witnesses (count {data['count']}), expected {count}")
    with mp.workdps(50):
        tau = parse_c(tau_spec)
        got = []
        for w in witnesses:
            p, q, r, s = w["homology"]
            if w["degree"] != M or p * s - q * r != M:
                problems.append(f"witness {w['sublattice']}: p*s - q*r = {p * s - q * r}, expected {M}")
            a, _, c = (parse_c(v) for v in w["de_rham"])
            if not close(a * c, M, 1e-25):
                problems.append(f"witness {w['sublattice']}: a*c = {mp.nstr(a * c, 15)}, expected {M}")
            got.append(klein_j(parse_c(w["target_tau"])))
        for a in range(1, M + 1):
            if M % a:
                continue
            d = M // a
            for b in range(d):
                if gcd(gcd(a, b), d) != 1:
                    continue
                want = klein_j((a * tau + b) / d)
                match = next((k for k, g in enumerate(got) if close(g, want, 1e-12)), None)
                if match is None:
                    problems.append(f"no witness reaches j(({a} tau + {b})/{d}) = {mp.nstr(want, 15)}")
                else:
                    got.pop(match)
    return problems


# ---------------------------------------------------------------------------
# relations


def _cfg(cfg) -> dict:
    """A relation configuration (library object or instance-file dict) as plain values."""
    if isinstance(cfg, dict):
        out = {k: cfg[k] for k in ("k_source", "k_target", "k_sing", "k_cm") if k in cfg}
        out.update({k: parse_c(cfg[k]) for k in "abc"})
        out["kind"] = cfg["kind"]
        out["gauged"] = any(cfg.get(k) is not None for k in ("pi_source", "pi_target", "pi_sing", "pi_cm"))
        return out
    out = {k: getattr(cfg, k) for k in ("k_source", "k_target", "k_sing", "k_cm", "a", "b", "c") if hasattr(cfg, k)}
    out["kind"] = "second" if hasattr(cfg, "k_source") else "pair"
    out["gauged"] = any(getattr(cfg, k, None) is not None for k in ("pi_source", "pi_target", "pi_sing", "pi_cm"))
    return out


def _recompute_H(configs, X) -> list:
    """H from the value matrices by the cofactor construction of the master equation.

    Second way: the cofactor rows (-m21, m11) and (m22, -m12) of the target
    matrix, pushed through [[a, 0], [b, c]], paired with the source columns.
    First way: the row (-T21, T11) of the singular column, paired with the CM
    columns.  A four-coordinate witness lists its two pairs in order.
    """
    out = []
    for cfg in configs:
        a, b, c = cfg["a"], cfg["b"], cfg["c"]
        if cfg["kind"] == "second":
            kt, ks = cfg["k_target"], cfg["k_source"]
            rows = [
                (-a * X[2, 1, kt] + b * X[1, 1, kt], c * X[1, 1, kt]),
                (a * X[2, 2, kt] - b * X[1, 2, kt], -c * X[1, 2, kt]),
            ]
            src = ks
        else:
            ks = cfg["k_sing"]
            rows = [(-a * X[2, 1, ks] + b * X[1, 1, ks], c * X[1, 1, ks])]
            src = cfg["k_cm"]
        for g1, g2 in rows:
            out += [g1 * X[1, col, src] + g2 * X[2, col, src] for col in (1, 2)]
    return out


def relation_problems(way, H, rhs, configs, assignment, rel) -> list:
    """The paper's laws for one witness, and H against its value matrices.

    first:  H1*H2 = r*s/(2*pi*i);  second: H1*H2*H3*H4 = p*q*r*s;
    four:   r2*s2*H1^(1)*H2^(1) = r1*s1*H1^(2)*H2^(2).
    A right-hand integer 0 forces its H-entry to 0.
    """
    problems = []
    if any(c["gauged"] for c in configs):
        return ["gauged configurations are not covered by these checks"]
    if way == "first":
        r, s = rhs
        lhs, want, zero_of = H[0] * H[1], mp.mpf(r * s) / (2j * mp.pi), {0: 0, 1: 1}
    elif way == "second":
        p, q, r, s = rhs
        lhs, want, zero_of = H[0] * H[1] * H[2] * H[3], mp.mpf(p * q * r * s), {0: 2, 1: 3, 2: 0, 3: 1}
    else:
        r1, s1, r2, s2 = rhs
        lhs, want, zero_of = r2 * s2 * H[0] * H[1], r1 * s1 * H[2] * H[3], {0: 0, 1: 1, 2: 2, 3: 3}
    if not close(lhs, want, rel):
        problems.append(f"{way} way: product law fails ({mp.nstr(lhs, 10)} vs {mp.nstr(want, 10)})")
    for i, h in zero_of.items():
        if rhs[i] == 0 and abs(H[h]) > rel:
            problems.append(f"{way} way: integer {i} is 0 but H{h + 1} = {mp.nstr(H[h], 8)}")
    # the second way lists (H1, H2) from the bottom row and (H3, H4) from the top
    again = _recompute_H(configs, assignment)
    if len(again) != len(H) or any(not close(h, g, rel) for h, g in zip(H, again)):
        problems.append(f"{way} way: H differs from the cofactor construction on its value matrices")
    return problems


def poly_problems(R, assignment, expected_degree, point, value, smooth) -> list:
    """Degree, homogeneity, vanishing at the witness, and the non-membership point."""
    problems = []
    degrees = {sum(e for _, e in mono) for mono in R.terms}
    if degrees != {expected_degree}:
        problems.append(f"polynomial degrees {sorted(degrees)}, expected homogeneous {expected_degree}")
    with mp.workdps(100):
        terms = []
        for mono, c in R.terms.items():
            term = mp.mpc(c.numerator) / c.denominator if isinstance(c, Fraction) else mp.mpc(c)
            for var, e in mono:
                term *= mp.mpc(assignment[var]) ** e
            terms.append(term)
        if abs(mp.fsum(terms)) > mp.mpf(10) ** -40 * max(1, mp.fsum(abs(t) for t in terms)):
            problems.append("polynomial does not vanish at the witness")
    problems += point_problems(point, smooth)
    exact = all(isinstance(c, (int, Fraction)) for c in R.terms.values())
    at_point = Fraction(0) if exact else mp.mpc(0)
    with mp.workdps(100):
        for mono, c in R.terms.items():
            term = c
            for var, e in mono:
                v = point[var]
                term *= (v if exact else mp.mpf(v.numerator) / v.denominator) ** e
            at_point += term
        if exact:
            if at_point == 0 or at_point != value:
                problems.append(f"polynomial at the non-membership point is {at_point}, certificate says {value}")
        elif abs(at_point) == 0 or not close(at_point, value, 1e-40):
            problems.append("polynomial at the non-membership point disagrees with the certificate")
    return problems


def point_problems(point, smooth) -> list:
    """Every smooth coordinate the point fixes completely has determinant exactly 1."""
    problems = []
    for k in smooth:
        entries = [point.get((i, j, k)) for i, j in ((1, 1), (2, 2), (1, 2), (2, 1))]
        if None in entries:
            continue
        x11, x22, x12, x21 = (Fraction(e) for e in entries)
        if x11 * x22 - x12 * x21 != 1:
            problems.append(f"non-membership point: det X_{k} = {x11 * x22 - x12 * x21}, not 1")
    return problems


def expected_degree(way: str, degenerate: bool) -> int:
    """Degenerate branches are bilinear; the pair product has degree 4, the double-CM one 8."""
    return 2 if degenerate else {"four": 4, "second": 8}[way]


def check_relation_output(out, smooth) -> list:
    """A library witness: laws, H against its matrices, and its polynomial and certificate."""
    w = out.witness
    configs = [_cfg(c) for c in (w.config if isinstance(w.config, tuple) else (w.config,))]
    with mp.workdps(90):
        problems = relation_problems(w.way, w.H, w.rhs_integers, configs, w.assignment, mp.mpf(10) ** -60)
    if out.poly is not None:
        problems += poly_problems(
            out.poly, w.assignment, expected_degree(w.way, bool(w.degenerate_flags)), out.cert.point, out.cert.value, smooth
        )
    return problems


def _instance(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    configs = [_cfg(c) for c in data["configs"]]
    smooth = set()
    for c in configs:
        smooth.update((c["k_source"], c["k_target"]) if c["kind"] == "second" else (c["k_cm"],))
    return data, configs, smooth


def _point(spec) -> dict:
    return {tuple(int(x) for x in k.split(",")): Fraction(v) for k, v in spec.items()}


def check_relation_cli(text: str, instance_path) -> list:
    """`relations ... --emit-instance`: laws and H against the emitted value matrices."""
    data = json.loads(text)["witness"]
    with mp.workdps(90):
        inst, configs, smooth = _instance(instance_path)
        X = {tuple(int(x) for x in k.split(",")): parse_c(v) for k, v in inst["assignment"].items()}
        H = [parse_c(h) for h in data["H"]]
        problems = relation_problems(data["way"], H, data["rhs_integers"], configs, X, mp.mpf(10) ** -25)
    poly = data["polynomial"]
    if poly.get("degree") != expected_degree(data["way"], bool(data["degenerate_flags"])) or not poly["homogeneous"]:
        problems.append(f"polynomial degree {poly.get('degree')} / homogeneous {poly.get('homogeneous')}")
    if poly.get("nonmembership") == "inconclusive":
        problems.append("non-membership inconclusive")
    else:
        problems += point_problems(_point(poly["nonmembership"]["witness_point"]), smooth)
    return problems


def check_relation_instance(text: str, instance_path) -> list:
    """`check-relation`: the polynomial read back has the degree its instance calls for."""
    data = json.loads(text)
    inst, _, smooth = _instance(instance_path)
    problems = []
    if data["degree"] != expected_degree(inst["way"], bool(inst["degenerate_flags"])) or not data["homogeneous"]:
        problems.append(f"read-back polynomial degree {data['degree']} / homogeneous {data['homogeneous']}")
    if mp.mpf(data["vanishing_residual"]) > mp.mpf(10) ** -30:
        problems.append(f"read-back polynomial does not vanish ({data['vanishing_residual']})")
    problems += point_problems(_point(data["nonmembership"]["witness_point"]), smooth)
    return problems
