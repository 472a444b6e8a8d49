"""Reference implementations that tests compare the package against."""


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character edits (insert, delete, substitute)
    turning ``a`` into ``b``."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,  # delete ca
                    current[j - 1] + 1,  # insert cb
                    previous[j - 1] + (ca != cb),  # substitute
                )
            )
        previous = current
    return previous[-1]
