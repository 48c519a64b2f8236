"""Shared brute-force oracles, deliberately independent of the code paths
they check: factor sets come from plain repeated substitution, palindrome
maxima from an all-substrings scan.  Also collects the acceptance
criterion verdicts and prints them in the terminal summary."""

import os
import subprocess
import sys
from pathlib import Path

import aperiodica
from aperiodica.substitution import apply, resolve_seed_and_power
from aperiodica.words import is_palindrome

SRC = Path(aperiodica.__file__).resolve().parents[1]

acceptance_lines = []


def record_acceptance(line):
    acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)


def expanded_word(rule, seed, min_length):
    """sigma^(k*j)(seed) for the first j that reaches min_length letters,
    with k the power at which the seed's image starts with the seed and
    grows (a single step of sigma may keep the length)."""
    seed, power = resolve_seed_and_power(rule, seed)
    w = (seed,)
    while len(w) < min_length:
        for _ in range(power):
            w = apply(rule, w)
    return w


def brute_factors(rule, seed, n, min_length=10000):
    """All length-n factors of a long plain expansion."""
    w = expanded_word(rule, seed, min_length)
    return frozenset(w[i : i + n] for i in range(len(w) - n + 1))


def brute_maximal_palindromes(word):
    """(doubled_center, length) of the longest palindrome at every center,
    by checking every substring."""
    best = {}
    n = len(word)
    for i in range(n):
        for j in range(i, n):
            if is_palindrome(word[i : j + 1]):
                c2 = i + j
                length = j - i + 1
                if best.get(c2, 0) < length:
                    best[c2] = length
    return best


def run_python(*args, timeout=60, env=None):
    """Run the interpreter with ``args`` in a child process that imports
    this checkout's package, so that a hang fails the test by timeout.
    ``env`` adds or overrides environment variables of the child."""
    env = dict(os.environ, **(env or {}), PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env
    )
