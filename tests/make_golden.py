"""Golden output bytes for the hunt and the configuration checkers.

The golden set pins, byte for byte, what the program prints for fixed
inputs:

- for each pipeline builder of pipeline_instances (and random_instance for
  seeds 0-11, hunted with seed=seed): the hunt's outcome.txt and, when a
  witness exists, its witness.txt;
- for each configuration fixture of fixtures.BUILDERS, plain and spoiled:
  the rendered checker report and the witness file.

test_golden.py compares these bytes with the files under tests/golden/.
Running this module directly rewrites those files; golden bytes change
only in a change that says why in CHANGES.md.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import fixtures
import pipeline_instances
from structhunt.configurations import (PRECONFIG_TAGS, verify_configuration,
                                       verify_preconfiguration)
from structhunt.fileio import dump_witness
from structhunt.pipeline import hunt_configuration

GOLDEN_DIR = Path(__file__).parent / "golden"
RANDOM_SEEDS = range(12)


def _hunts():
    """(name, bundle, split, seed) for every pipeline instance."""
    for name in sorted(dir(pipeline_instances)):
        if name.endswith("_instance") and name != "random_instance":
            b, split = getattr(pipeline_instances, name)()
            yield name[:-len("_instance")], b, split, 0
    for seed in RANDOM_SEEDS:
        b, split = pipeline_instances.random_instance(seed)
        yield "random_%02d" % seed, b, split, seed


def golden_files() -> dict:
    """Relative path -> text of every golden file."""
    files = {}
    for name, b, split, seed in _hunts():
        out = hunt_configuration(b, split, seed=seed)
        files["hunt_%s/outcome.txt" % name] = out.dump()
        if out.witness is not None:
            files["hunt_%s/witness.txt" % name] = dump_witness(
                out.witness, out.config_params)
    for tag in sorted(fixtures.BUILDERS):
        for spoil in (False, True):
            b, split, w, cp = fixtures.build(tag, spoil)
            check = verify_preconfiguration if tag in PRECONFIG_TAGS \
                else verify_configuration
            name = "config_%s%s" % (tag, "_spoil" if spoil else "")
            files["%s/report.txt" % name] = check(w, b, split, cp).render() + "\n"
            files["%s/witness.txt" % name] = dump_witness(w, cp)
    return files


if __name__ == "__main__":
    files = golden_files()
    if GOLDEN_DIR.exists():
        shutil.rmtree(GOLDEN_DIR)
    for rel, text in sorted(files.items()):
        path = GOLDEN_DIR / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    print("wrote %d golden files under %s" % (len(files), GOLDEN_DIR))
