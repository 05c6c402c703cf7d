#!/usr/bin/env python3
"""Measure how reliably the secret parameter falls out of the quotient key.

Encrypts random messages under random s, hands an "attacker" only what an
eavesdropper holding the key material would have (ciphertext + quotients,
but not s), and scans s candidates by trial decryption. The true s is
recovered in every trial, which is the whole security story of this scheme.

With --ciphertext-only the attacker holds the ciphertext alone. A letter's
residue g * e! mod 26 depends only on its value g and schedule exponent e:
it is g itself for e = 1 (the letter is in clear), it fixes g mod 13 for
2 <= e <= 12 (2 candidates of 26), and it is always Z for e >= 13. For each
s this mode reports the share of letters in clear, the share fixed to 2
candidates, and how often the ciphertext alone fixes s: how often s is the
one likeliest candidate in 1..--max-s for uniformly random letters. That is
mostly the Z pattern: under a candidate, every slot with e >= 13 must show
Z, and a Z elsewhere is a 2-in-26 chance. Only under s = 1 do the letters
in clear also count, since an odd residue needs e = 1.

With --tamper an active attacker edits one position of each message and
the holder of the key decrypts the result. For each s this mode reports
the share of edits that decrypt without an error: every other letter at
that position of the ciphertext, and the quotient there moved by +-1 and
+-2. A letter edit moves the coefficient by at most 25, never a multiple of
e! >= 120, so from s = 5 on every one is caught. A quotient edit by
d = e!/gcd(e!, 26) moves the coefficient by 26 * d, a multiple of e!, so it
shifts the letter by 26/gcd(e!, 26) (13 for 2 <= e <= 12, 1 for e >= 13).
The third share is how many such edits, up and down, that keep the letter
in A..Z decrypt to the predicted plaintext: all of them, at every s.
"""

import argparse
import math
import random
import string

from mellin_cipher.alphabet import ALPHABET
from mellin_cipher.cipher import decrypt, encrypt, exponent_schedule, recover_s, CipherKey, CipherText
from mellin_cipher.errors import CipherToolkitError


def run_trials(trials: int, max_s: int, max_len: int, seed: int, verbose: bool) -> int:
    rng = random.Random(seed)
    misses = 0
    ambiguous = 0
    for trial in range(1, trials + 1):
        length = rng.randint(1, max_len)
        plaintext = "".join(rng.choice(string.ascii_uppercase) for _ in range(length))
        s = rng.randint(1, max_s)
        ciphertext, key = encrypt(plaintext, s)

        candidates = recover_s(ciphertext, key.quotients, 2 * max_s)
        hit = s in candidates
        misses += not hit
        ambiguous += len(candidates) > 1
        if verbose or not hit:
            decryptions = {
                c: decrypt(ciphertext, CipherKey(c, key.quotients)) for c in sorted(candidates)
            }
            print(
                f"trial {trial:>4}: len={length:<3} true_s={s:<3} "
                f"candidates={sorted(candidates)} -> {decryptions}"
            )
    print(f"\nrecovered the true s in {trials - misses}/{trials} trials "
          f"({ambiguous} with more than one candidate)")
    return 0 if misses == 0 else 1


def _residue_counts(e: int) -> list[int]:
    """At index r, how many letter values g in 1..26 make g * e! leave residue r (1..26)."""
    counts = [0] * 27
    for g in range(1, 27):
        counts[(g * math.factorial(e) - 1) % 26 + 1] += 1
    return counts


def run_ciphertext_only(trials: int, max_s: int, max_len: int, seed: int) -> int:
    rng = random.Random(seed)
    counts = {e: _residue_counts(e) for e in range(1, 2 * max_s + 1)}
    print(f"ciphertext only: {trials} messages of 1..{max_len} letters per s, candidates 1..{max_s}")
    print(f"{'s':>4} {'in clear':>9} {'2 candidates':>13} {'fixes s':>8}")
    for s in range(1, max_s + 1):
        letters = clear = pair = fixed = 0
        for _ in range(trials):
            length = rng.randint(1, max_len)
            residues = encrypt("".join(rng.choices(string.ascii_uppercase, k=length)), s)[0].residues
            shares = [counts[e][r] for r, e in zip(residues, exponent_schedule(s, length))]
            clear, pair, letters = clear + shares.count(1), pair + shares.count(2), letters + length
            # each candidate's likelihood, times 26**length: exact ints, so ties are exact
            weight = {
                c: math.prod(counts[e][r] for r, e in zip(residues, exponent_schedule(c, length)))
                for c in range(1, max_s + 1)
            }
            best = max(weight.values())
            fixed += [c for c in weight if weight[c] == best] == [s]
        print(f"{s:>4} {clear / letters:>9.1%} {pair / letters:>13.1%} {fixed / trials:>8.1%}")
    return 0


def _opened(residues: list[int], s: int, quotients: list[int]):
    """The plaintext of (residues, quotients) under s, or None if it does not decrypt."""
    try:
        return decrypt(CipherText(residues), CipherKey(s, quotients))
    except CipherToolkitError:
        return None


def _edited(values: list[int], at: int, value: int) -> list[int]:
    return [*values[:at], value, *values[at + 1 :]]


def _share(outcomes: list[bool]) -> str:
    share = f"{sum(outcomes) / len(outcomes):.1%}" if outcomes else "-"
    return f"{share:>7} {f'{sum(outcomes)}/{len(outcomes)}':>10}"


def run_tamper(trials: int, max_s: int, max_len: int, seed: int) -> int:
    rng = random.Random(seed)
    print(f"tamper: {trials} messages of 1..{max_len} letters per s, one position edited in each")
    print(f"{'s':>4} {'ciphertext edits':>18} {'quotient +-1, +-2':>18} {'known shifts':>18}")
    for s in range(1, max_s + 1):
        letter_edits, quotient_edits, shifts = [], [], []  # per edit: whether it decrypts (as predicted)
        for _ in range(trials):
            plaintext = "".join(rng.choices(string.ascii_uppercase, k=rng.randint(1, max_len)))
            ciphertext, key = encrypt(plaintext, s)
            residues, quotients = list(ciphertext.residues), list(key.quotients)
            at = rng.randrange(len(plaintext))
            letter_edits += [
                _opened(_edited(residues, at, residue), s, quotients) is not None
                for residue in range(1, 27)
                if residue != residues[at]
            ]
            quotient_edits += [
                _opened(residues, s, _edited(quotients, at, quotients[at] + delta)) is not None
                for delta in (-2, -1, 1, 2)
                if quotients[at] + delta >= 0  # no key holds a negative quotient
            ]
            factorial = math.factorial(exponent_schedule(s, at + 1)[at])
            step, shift = factorial // math.gcd(factorial, 26), 26 // math.gcd(factorial, 26)
            for sign in (1, -1):
                if 0 <= (letter := ALPHABET.index(plaintext[at]) + sign * shift) < 26:
                    predicted = plaintext[:at] + ALPHABET[letter] + plaintext[at + 1 :]
                    edited = _edited(quotients, at, quotients[at] + sign * step)
                    shifts.append(_opened(residues, s, edited) == predicted)
        print(f"{s:>4} " + " ".join(map(_share, (letter_edits, quotient_edits, shifts))))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--max-s", type=int, default=16)
    parser.add_argument("--max-len", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true", help="print every trial")
    parser.add_argument(
        "--ciphertext-only", action="store_true", help="report what the ciphertext alone shows, by s"
    )
    parser.add_argument("--tamper", action="store_true", help="report which one-position edits decrypt, by s")
    args = parser.parse_args()
    if args.tamper:
        return run_tamper(args.trials, args.max_s, args.max_len, args.seed)
    if args.ciphertext_only:
        return run_ciphertext_only(args.trials, args.max_s, args.max_len, args.seed)
    return run_trials(args.trials, args.max_s, args.max_len, args.seed, args.verbose)


if __name__ == "__main__":
    raise SystemExit(main())
