"""Chord-length scaling of the mutual information and the fitted central charge.

Sweeps the subsystem size at fixed L, fits I2 against
(1/4) ln((L/pi) sin(pi L_A / L)), and compares the fitted coefficient c2
with the closed-form value 2c = 1 expected for the Ising universality
class at Renyi index 2.
"""

from renyimi import (
    build_mi_plans,
    conjectured_cn,
    default_window,
    fit_cft,
    ground_state,
    scaling_variable,
)

L = 14
psi = ground_state(L).state
window = default_window(L)
l_a_values = list(range(window[0], window[1] + 1))
print(f"L = {L}, fit window L_A in [{window[0]}, {window[1]}]")
print(f"closed-form expectation: c_2 = {conjectured_cn(2, 0.5)} (Ising, c = 1/2)")

for axis in ("Z", "X"):
    print()
    print("=" * 70)
    print(f"{axis}-basis sweep")
    print("=" * 70)
    plans = build_mi_plans(psi, l_a_values, axis)
    for p_m in (0.0, 0.1, 0.25, 0.5):
        points = [(L, l_a, plans[l_a].point(p_m).I2) for l_a in l_a_values]
        res = fit_cft(points)
        print(f"p_m = {p_m:4.2f}: c2 = {res.c2:7.4f}   b2 = {res.b2:7.4f}   rms = {res.rms:.2e}")

print()
print("=" * 70)
print("Raw scaling data at p_m = 0.5 (Z basis)")
print("=" * 70)
plans = build_mi_plans(psi, l_a_values, "Z")
print(f"{'L_A':>4s} {'x = ln((L/pi) sin(pi L_A/L))':>30s} {'I2':>12s}")
for l_a in l_a_values:
    x = scaling_variable(L, l_a)
    i2 = plans[l_a].point(0.5).I2
    print(f"{l_a:4d} {x:30.6f} {i2:12.6f}")
