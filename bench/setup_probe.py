"""One set-up of an in-process workload: import lecamjd, build the model.

``python3 bench/setup_probe.py <workload>``; the harness times the whole
process from outside, interpreter start-up included.
"""

import sys

import specs

SPEC_FACTORIES = {"sweep-continuous": specs.continuous_spec,
                  "sweep-lattice": specs.lattice_spec,
                  "risk-mc": specs.risk_spec}

if __name__ == "__main__":
    SPEC_FACTORIES[sys.argv[1]]()
