"""Reference work for scaling the benchmark's CPU times; run only by
``bench/run.py``, as a fresh process whose CPU time measures how fast the
machine is at that moment.

It starts an interpreter and runs fixed pure-Python work (integer and float
arithmetic and dict stores, as in an interpreter-bound numerical program).
It imports nothing of fracineq, so no change to fracineq moves its time.
"""

N = 20000


def reference_loop(n: int = N) -> float:
    table = {}
    total = 0.0
    for i in range(n):
        for j in range(1, 9):
            x = (i * j) % 97 + 0.5
            total += x ** 0.5 / j
            table[(i + j) & 1023] = total
    return total


if __name__ == "__main__":
    reference_loop()
