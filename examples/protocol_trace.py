#!/usr/bin/env python3
"""Watch a consensus run itself: structured protocol tracing.

Attaches a tracer to one process and runs a binary consensus with mixed
proposals, then prints the decision-relevant events: rounds starting,
broadcasts going out, values being delivered, and the decide event --
the protocol's own story of the paper's "one round, three steps".

Run with:  python examples/protocol_trace.py
"""

from repro import LanSimulation
from repro.core.trace import KIND_BROADCAST, KIND_DECIDE, KIND_DELIVER, KIND_ROUND, Tracer


def main() -> None:
    sim = LanSimulation(n=4, seed=9)
    tracer = Tracer(clock=lambda: sim.now)
    sim.stacks[0].stats.subscribe(tracer, (KIND_ROUND, KIND_BROADCAST, KIND_DECIDE, KIND_DELIVER))

    decisions = [None] * 4
    for pid, stack in enumerate(sim.stacks):
        bc = stack.create("bc", ("vote",))
        bc.on_deliver = lambda _i, v, pid=pid: decisions.__setitem__(pid, v)
    proposals = [1, 0, 1, 1]
    for pid, stack in enumerate(sim.stacks):
        stack.instance_at(("vote",)).propose(proposals[pid])
    sim.run(until=lambda: all(d is not None for d in decisions))

    print(f"proposals {proposals} -> decisions {decisions}\n")
    print("p0's protocol events (rounds, own broadcasts, deliveries, decide):\n")
    shown = 0
    for event in tracer.events():
        if event.kind == KIND_DELIVER and len(event.path) <= 2:
            continue  # the app-level delivery; inner ones are the story
        print(event.render())
        shown += 1
    decide = next(tracer.select(kind=KIND_DECIDE))
    print(
        f"\n{shown} events; decided value {decide.detail['value']} in round "
        f"{decide.detail['round']} at {decide.time * 1e3:.2f} ms -- "
        "three reliable-broadcast steps, exactly as Section 4.3 reports."
    )


if __name__ == "__main__":
    main()
