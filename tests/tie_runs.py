"""The tie rule walked entry by entry with one list per run: an entry
further than tol from the first entry of the current run starts the next
run.  It is independent of ``matrix_core._run_starts``, which the tests
compare against it."""


def reference_runs(v, tol):
    """The runs of tol-equal values of a nonincreasing sequence v, as
    lists of indices in order."""
    runs, start = [], 0
    for i in range(1, len(v)):
        if abs(v[i] - v[start]) > tol:
            runs.append(list(range(start, i)))
            start = i
    return runs + [list(range(start, len(v)))] if len(v) else runs
