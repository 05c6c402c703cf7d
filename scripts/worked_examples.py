#!/usr/bin/env python3
"""Walk the two reference examples end to end, printing every intermediate.

Shows, for "HELLO" under s=4 and s=3: letter values, schedule exponents,
transformed coefficients, the mod-26 split, the ciphertext and key, and the
decryption back to the plaintext. Ends with the degenerate case: for s >= 13
every ciphertext is all Z.
"""

import math

from mellin_cipher.alphabet import encode_text
from mellin_cipher.cipher import decrypt, encrypt, exponent_schedule


def show(plaintext: str, s: int) -> None:
    values = encode_text(plaintext)
    exponents = exponent_schedule(s, len(values))
    ciphertext, key = encrypt(plaintext, s)

    print(f"plaintext {plaintext!r} with s={s}")
    print(f"  {'pos':>3} {'chr':>3} {'val':>4} {'exp':>4} {'coefficient':>14} {'quotient':>10} {'residue':>8} {'ct':>3}")
    for i, (char, value, exponent, quotient, residue) in enumerate(
        zip(plaintext, values, exponents, key.quotients, ciphertext.residues), start=1
    ):
        coefficient = value * math.factorial(exponent)
        print(
            f"  {i:>3} {char:>3} {value:>4} {exponent:>4} {coefficient:>14} "
            f"{quotient:>10} {residue:>8} {ciphertext.letters[i - 1]:>3}"
        )
    print(f"  ciphertext: {ciphertext.letters}")
    print(f"  key:        s={key.s}, quotients={list(key.quotients)}")
    print(f"  decrypted:  {decrypt(ciphertext, key)!r}")
    print()


def main() -> None:
    show("HELLO", 4)
    show("HELLO", 3)
    # 26 = 2 * 13 divides e! for every e >= 13, so every residue is 26
    print(f"HELLOWORLD with s=13 -> {encrypt('HELLOWORLD', 13)[0].letters}")


if __name__ == "__main__":
    main()
