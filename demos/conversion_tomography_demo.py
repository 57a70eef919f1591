"""Tomography of polarization entanglement carried through the interface.

One half of a polarization-entangled pair is encoded into time bins,
frequency converted to the telecom band, and decoded back; 16 coincidence
settings are then collected and the two-qubit state reconstructed by
maximum likelihood.

The interesting part is the noise floor.  Pump-induced photons admix an
unpolarized background that drags the raw fidelity to ~0.75, low enough
that no measurement settings violate the CHSH bound, while the fidelity
witness still certifies entanglement.  That background is white noise of
weight w in the state, so it puts the same n w / 4 counts on every
setting; subtracting that floor from the counts recovers the
source-limited state.
"""

from qfcsim.config import PRESETS
from qfcsim.experiments import run_tomography_experiment
from qfcsim.metrics import chsh_assessment, fidelity
from qfcsim.qubits import PHI_PLUS, end_to_end_state


def show(tag, res):
    print(f"{tag}:")
    print(f"  fidelity to phi+      {res.fidelity:.4f} +- {res.errors['fidelity']:.4f}")
    print(f"  concurrence           {res.concurrence:.4f}")
    print(f"  entanglement of form. {res.eof:.4f} +- {res.errors['eof']:.4f}")
    print(f"  CHSH S_max            {res.chsh.s_max:.4f} +- {res.errors['s_max']:.4f}")
    print(f"  witness (F > 1/sqrt2) {'violated' if res.chsh.witness_violated else 'not violated'}")
    print(f"  CHSH (S > 2)          {'violated' if res.chsh.s_max > 2.0 else 'not violated'}")


cfg = PRESETS["calibrated_tomo"]()
rho_true = end_to_end_state(cfg)
print(f"true end-to-end state: F = {fidelity(rho_true, PHI_PLUS):.4f}, "
      f"S_max = {chsh_assessment(rho_true).s_max:.4f}")
print()

raw = run_tomography_experiment(cfg)
show("raw reconstruction", raw)
print()

sub = run_tomography_experiment(cfg, subtract_bg=True)
show("after background subtraction", sub)
print()

src = run_tomography_experiment(PRESETS["source_only_tomo"]())
show("source only (interface bypassed)", src)
print()

if raw.chsh.witness_violated and raw.chsh.s_max <= 2.0:
    print("note the raw state is certified entangled by the witness yet "
          "violates no CHSH inequality;")
    print("the two criteria genuinely disagree in this fidelity range.")
