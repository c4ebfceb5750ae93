import json

import pytest

from aahpump.cli import PRESETS, main as cli_main


@pytest.fixture(scope="session")
def run_preset(tmp_path_factory):
    """Run a named CLI preset once per session and cache the outdir."""
    base = tmp_path_factory.mktemp("preset_runs")
    done = {}

    def run(name):
        if name not in done:
            command = PRESETS[name][0]
            outdir = base / name
            rc = cli_main([command, "--preset", name,
                           "--outdir", str(outdir)])
            assert rc == 0, f"preset {name} exited {rc}"
            done[name] = outdir
        return done[name]

    return run


@pytest.fixture(scope="session")
def pump_summary(run_preset):
    """Parsed run-summary JSON of a pump preset."""

    def get(name):
        outdir = run_preset(name)
        with open(outdir / f"{name}_summary.json") as fh:
            return json.load(fh)

    return get
