"""Kernel-side audits: spatial/temporal decay of the gradient kernel, the
smoothness integral behind singular-integral boundedness, and the dyadic
block L1 envelope."""

import numpy as np

from speclp import (INF, GridSpec, build_decomposition, build_time_window,
                    decay_fit_space, decay_fit_time, dyadic_l1_envelope, get_symbol,
                    hormander_report)

heat, poisson = get_symbol("heat"), get_symbol("poisson")

g = GridSpec(1, 4096, 64.0)
print("time decay of sup_x |grad K(t, .)| ~ (t-s)^e")
for n1, n2 in (("heat", "heat"), ("poisson", "poisson"), ("poisson", "heat")):
    rep = decay_fit_time(get_symbol(n1), 0.0, get_symbol(n2), 0.0, g,
                         [0.5, 1.0, 2.0, 4.0])
    print(f"  {n1}/{n2:<8} fitted {rep.fitted_exponent:+.4f}   "
          f"target {rep.target_exponent:+.2f}")

print()
rep = decay_fit_space(poisson, 0.0, poisson, 0.0, 1.0, g, fit_window=(4.0, 32.0))
print(f"space decay, poisson pair: fitted exponent {rep.fitted_exponent:+.3f} "
      f"(target {rep.target_exponent:+.1f}), tail constant {rep.fitted_constant:.4f} "
      f"(2/pi = {2 / np.pi:.4f})")

print()
print("smoothness integral H(y) over 8 octaves of |y| (heat pair, q=2):")
gH = GridSpec(1, 32768, 32.0)
w = build_time_window(0.0, INF, 2.0, 2.0, 2.0, kappa2=1.0, xi_min=gH.min_freq,
                      xi_max=gH.nyquist)
ys = [np.array([2.0**k]) for k in range(-6, 3)]
hrep = hormander_report(heat, 0.0, heat, 0.0, w, 2.0, ys, gH)
for y, H in zip(hrep.y_values, hrep.integrals):
    print(f"  |y| = {y:<10.6g} H = {H:.5f}")
print(f"  sup = {hrep.sup:.5f}, log-log trend slope = {hrep.trend_slope:+.4f}")

print()
print("dyadic block L1 norms under the fitted envelope C 2^(2j) exp(-c (t-s) 4^j):")
gE = GridSpec(1, 32768, 512.0)
D = build_decomposition(gE)
erep = dyadic_l1_envelope(heat, 0.0, heat, 0.0, 1.0, range(-6, 6), gE, D)
for row in erep.rows:
    print(f"  j={row.j:+3d}  measured {row.l1_norm:10.3e}  envelope {row.envelope:10.3e}")
print(f"  fitted C = {erep.constant:.4f}, c = {erep.rate:.4f}, "
      f"low-j growth slope = {erep.low_j_slope:.4f} (order of the outer symbol = 2)")
