"""Independent reference decoder used as a test oracle.

Deliberately re-implements the branch table from scratch over plain
strings, sharing no code with the package, so that agreement between the
two is meaningful.
"""


def _gamma(s):
    z = 0
    while z < len(s) and s[z] == "0":
        z += 1
    end = 2 * z + 1
    if z == len(s) or end > len(s):
        return None
    return int(s[z:end], 2), end


def _payload(body, make_output):
    head = _gamma(body)
    if head is None:
        return "needs_more_input", None
    n, used = head
    w = body[used : used + n - 1]
    if len(w) < n - 1:
        return "needs_more_input", None
    if used + n - 1 < len(body):
        return "halted_early", make_output(w)
    return "halt", make_output(w)


def ref_decode(program, registry=None):
    """(status, output) with unlimited steps.

    Without a registry the submachine branch is left symbolic.  A registry
    maps a submachine index to its decoder's name: a "reverse-payload" slot
    reads g(n) w like the raw branch and outputs w reversed; a
    "loop-forever" slot never halts, so it runs out of any budget.  Any
    other index is no such submachine.
    """
    if program.startswith("110"):
        return _payload(program[3:], lambda w: "0" * (int("1" + w, 2) - 1))
    if program.startswith("111"):
        head = _gamma(program[3:])
        if head is None:
            return "needs_more_input", None
        if registry is None:
            return "submachine", None
        e, used = head
        slot = registry.get(e)
        if slot == "reverse-payload":
            return _payload(program[3 + used :], lambda w: w[::-1])
        if slot == "loop-forever":
            return "out_of_budget", None
        return "no_such_submachine", None
    if program.startswith("10"):
        return _payload(program[2:], lambda w: w + w)
    if program.startswith("0"):
        return _payload(program[1:], lambda w: w)
    return "needs_more_input", None  # "", "1", "11"


def ref_halting_set(max_len, registry=None):
    """All (program, output) pairs with status halt, up to max_len bits."""
    out = []
    for length in range(1, max_len + 1):
        for val in range(1 << length):
            p = format(val, f"0{length}b")
            status, s = ref_decode(p, registry)
            if status == "halt":
                out.append((p, s))
    return out


def ref_steps(program, output):
    """Step count for a halting run: read each bit, emit each bit, halt."""
    return len(program) + len(output) + 1
