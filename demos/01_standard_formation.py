"""Standard group formation, start to finish.

Three peers boot with no preassigned roles.  Each scans, then alternates
between listening on a random channel and sweeping all channels with probe
requests.  The first two to rendezvous run the three-way owner negotiation;
the loser provisions against the new owner and the third host joins the
announced group.  The script prints the interesting slices of the delivery
trace and the end-of-run metrics.
"""

from pathlib import Path

from wfdsim import Simulation, parse_config, seconds

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "scenario1_standard.ini"

config = parse_config(CONFIG.read_text(encoding="utf-8"))
result = Simulation(config, seed=1).run(until=seconds(20))

print("=== final states ===")
for host, state in result.final_states.items():
    print(f"  {host}: {state}")

print("\n=== owner negotiation ===")
for neg in result.history.negotiations:
    print(f"  {neg.initiator} (intent {neg.initiator_intent}) vs "
          f"{neg.responder} (intent {neg.responder_intent}) "
          f"-> owner {neg.winner}")

print("\n=== trace: the three-way handshake and the first beacon ===")
interesting = ("GO Negotiation Request Frame", "GO Negotiation Response Frame",
               "GO Negotiation Confirmation Frame")
start = next(tx.time for tx in result.trace if tx.frame_name in interesting)
shown = 0
for record in result.collector.records:
    if record.time >= start and shown < 14:
        print("  " + record.line())
        shown += 1

print("\n=== metrics ===")
print("\n".join("  " + line for line in result.metrics_flat().splitlines()))
