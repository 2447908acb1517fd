"""Seeded random loop-free programs, sized for the execution oracle.

Used by the soundness fuzz suite and by scripts/fuzz_soundness.py: programs
stay within the oracle guard (few threads, few shared-memory events per
thread, small constants) and always carry a random final assertion so that
verdicts can be cross-checked.
"""

from __future__ import annotations

import random

from .litmus import Program, parse

_VARS = ["x", "y", "z"]
_CMP = ["==", "!=", "<", "<="]
# at most this many threads, and this many operations drawn per thread
_MAX_THREADS = 3
_MAX_EVENTS = 6


def random_program(seed: int) -> Program:
    rng = random.Random(seed)
    n_threads = rng.randint(2, _MAX_THREADS)
    n_vars = rng.randint(1, 2)
    variables = _VARS[:n_vars]
    lines = ["vars " + ", ".join(f"{v} = 0" for v in variables) + ";"]
    use_lock = rng.random() < 0.25
    if use_lock:
        lines.append("locks m;")
    label_n = 0
    all_regs: list = []
    total_events = 0
    # reads and per-variable writes drive the oracle's enumeration fanout
    read_budget = rng.randint(3, 5)
    writes_left = {v: 4 for v in variables}

    def fresh_label() -> str:
        nonlocal label_n
        label_n += 1
        return f"l{label_n}"

    for t in range(n_threads):
        regs: list = []
        body: list = []
        n_ops = rng.randint(1, _MAX_EVENTS)
        budget = min(n_ops, 14 - total_events - (2 if use_lock and t < 2 else 0))
        if budget < 1:
            break
        locked = False
        if use_lock and t < 2 and budget >= 3:
            body.append(f"{fresh_label()}: lock m;")
            locked = True
            budget -= 2
        emitted = 0
        attempts = 0
        while emitted < budget and attempts < 40:
            attempts += 1
            kind = rng.random()
            var = rng.choice(variables)
            if kind < 0.45 or read_budget <= 0:
                if writes_left[var] <= 0:
                    continue
                writes_left[var] -= 1
                val = (rng.choice(regs) + " + " + str(rng.randint(0, 2))
                       if regs and rng.random() < 0.3 else str(rng.randint(0, 3)))
                body.append(f"{fresh_label()}: store {var} {val};")
            elif kind < 0.75:
                reg = f"r{t}{len(regs)}"
                regs.append(reg)
                read_budget -= 1
                body.append(f"{fresh_label()}: {reg} = load {var};")
            elif kind < 0.85:
                if writes_left[var] <= 0:
                    continue
                writes_left[var] -= 1
                reg = f"r{t}{len(regs)}"
                regs.append(reg)
                read_budget -= 1
                body.append(f"{fresh_label()}: {reg} = fadd {var} 1;")
            elif kind < 0.92:
                if writes_left[var] <= 0:
                    continue
                writes_left[var] -= 1
                reg = f"r{t}{len(regs)}"
                regs.append(reg)
                read_budget -= 1
                body.append(f"{fresh_label()}: {reg} = cas {var} "
                            f"{rng.randint(0, 1)} {rng.randint(1, 3)};")
            elif regs:
                reg = rng.choice(regs)
                if rng.random() < 0.5 or read_budget <= 0:
                    body.append(f"{fresh_label()}: {reg} = {reg} + 1;")
                else:
                    guard = f"{reg} {rng.choice(_CMP)} {rng.randint(0, 2)}"
                    inner_reg = f"r{t}{len(regs)}"
                    regs.append(inner_reg)
                    read_budget -= 1
                    body.append(f"if ({guard}) {{ {fresh_label()}: {inner_reg} = "
                                f"load {rng.choice(variables)}; }}")
                    emitted += 1  # the branch carries one event
                continue
            else:
                continue
            emitted += 1
        if locked:
            body.append(f"{fresh_label()}: unlock m;")
        total_events += emitted + (2 if locked else 0)
        lines.append(f"thread t{t} {{ " + " ".join(body) + " }")
        all_regs.extend(regs)

    if all_regs:
        r = rng.choice(all_regs)
        cond = f"{r} {rng.choice(_CMP)} {rng.randint(0, 2)}"
        if len(all_regs) > 1 and rng.random() < 0.5:
            r2 = rng.choice(all_regs)
            cond += f" || {r2} {rng.choice(_CMP)} {rng.randint(0, 2)}"
        lines.append(f"assert ({cond});")
    return parse("\n".join(lines))
