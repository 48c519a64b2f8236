"""Shared brute-force oracles, deliberately independent of the code paths
they check: factor sets come from plain repeated substitution, palindrome
maxima from an all-substrings scan.  Also collects the acceptance
criterion verdicts and prints them in the terminal summary."""

import os
import random
import subprocess
import sys
from pathlib import Path

import aperiodica
from aperiodica.substitution import SubstitutionRule, apply, is_primitive, matrix
from aperiodica.substitution import resolve_seed_and_power
from aperiodica.words import Alphabet, is_palindrome

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


def acceptance_rules(count=200, seed=20260808):
    """Seeded primitive rules on 2-4 letters with images of length 1-3,
    the corpus of the exclusion-soundness criterion."""
    rng = random.Random(seed)
    rules = []
    while len(rules) < count:
        r = rng.choice((2, 3, 4))
        images = tuple(
            tuple(rng.randrange(r) for _ in range(rng.choice((1, 2, 2, 3)))) for _ in range(r)
        )
        try:
            rule = SubstitutionRule(Alphabet("abcd"[:r]), images)
        except ValueError:
            continue
        if is_primitive(matrix(rule)) is None:
            continue
        rules.append(rule)
    return rules
