# Standard workflows for the DIVOT reproduction.

.PHONY: install test bench bench-full reproduce reproduce-full examples

install:
	pip install -e .[test]

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_FULL_SCALE=1 pytest benchmarks/ --benchmark-only

reproduce:
	python -m repro.experiments.run_all

reproduce-full:
	python -m repro.experiments.run_all --full

examples:
	python examples/quickstart.py
	python examples/tamper_forensics.py
	python examples/memory_bus_protection.py
	python examples/environment_sweep.py
	python examples/serial_link_protection.py
	python examples/fleet_operations.py
	python examples/protocol_zoo.py
