"""driftbench: periodic averaging, resonance geometry, steepness checks, and
drift experiments for near-integrable Hamiltonians at desk scale."""
