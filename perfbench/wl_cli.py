"""Workload ``cli``: cold ``nova`` commands, each a fresh interpreter running
``python -m novikov.cli`` on the bundled fixtures.

Why: ``cli``, ``serialize`` and import time are measured nowhere else; most
of each command is ``import novikov.cli``.  ``prop --field F5`` is left out:
every process would re-enumerate the F5 tables, which makes the latency
bimodal, and ``enumerate`` already times that enumeration.

The seed sets the order of the commands in each pass.  Each command's exit
code and stdout (without its self-reported ``elapsed_ms``) are pinned.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

from harness import Op, Outcome, pass_samples, sha

COMMANDS = (
    ("verify_algebra", ["verify", "algebra", "fixtures/a2.json"]),
    ("check_ext-o", ["check", "ext-o", "--weight", "1", "--kappa", "-2", "--mu", "0",
                     "fixtures/a2.json", "regular", "fixtures/t2.json", "fixtures/beta2.json"]),
    ("check_gnybe", ["check", "gnybe", "fixtures/a2.json", "fixtures/r_skew.json"]),
    ("derive_circ-t", ["derive", "circ-t", "--weight", "1", "fixtures/a2.json", "fixtures/t2.json"]),
    ("solve_nybe", ["solve", "nybe", "fixtures/a2_f3.json", "--field", "F3", "--count-only"]),
)


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def stdout_hash(text: str) -> str:
    try:
        return sha(_strip_elapsed(json.loads(text)))
    except ValueError:
        return sha(text)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli:
    name = "cli"
    # Latency is taken over complete passes; a cap keeps their number, and so
    # the tail percentile the sample count allows, the same on every run.
    max_passes = 19

    def __init__(self, root: str, seed: int, pins: dict, goldens: dict):
        self.root = root
        self.pins = pins
        self.env = child_env(root)
        self.ops = [Op(name, self._subprocess(argv), in_child=True) for name, argv in COMMANDS]
        self.inprocess_ops = [Op(name, self._inprocess(argv)) for name, argv in COMMANDS]

    def _subprocess(self, argv):
        cmd = [sys.executable, "-m", "novikov.cli", *argv]

        def run():
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout

        return run

    def _inprocess(self, argv):
        def run():
            from novikov import cli

            out, err = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(self.root)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(argv))
            finally:
                os.chdir(cwd)
            return code, out.getvalue()

        return run

    def check(self, op: Op, out, scale: float = 1.0) -> Outcome:
        code, stdout = out
        pin = self.pins[op.name]
        outcome = Outcome()
        got = [code, stdout_hash(stdout)]
        if got != [pin["exit"], pin["stdout"]]:
            outcome.fail(f"{op.name}: exit/stdout {got}, pinned {[pin['exit'], pin['stdout']]}")
        return outcome

    def finish(self) -> list:
        return []

    def latency_samples(self, samples) -> list:
        return pass_samples(samples)
