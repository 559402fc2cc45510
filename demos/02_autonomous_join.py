"""Autonomous group creation and the joining procedure.

host[0] is configured as the group owner, so it creates its group
unilaterally and announces it with beacons.  The other two hosts detect the
group and join through the provision-discovery exchange; no owner
negotiation ever happens.  With this seed the owner's very first transmitted
frame is a beacon, and both provision requests arrive before the owner's
responses.
"""

from pathlib import Path

from wfdsim import Simulation, parse_config, seconds

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "scenario2_autonomous.ini"

config = parse_config(CONFIG.read_text(encoding="utf-8"))
for warning in config.warnings:
    print(f"(config) {warning}")

result = Simulation(config, seed=15).run(until=seconds(8))

print("\n=== first frames on air from host[0] ===")
host0 = [r for r in result.collector.records if r.src == "host[0]"]
for record in host0[:3]:
    print("  " + record.line())

print("\n=== the joining exchange ===")
names = {"Beacon", "Provision Request", "Provision discovery Response", "ACK",
         "Authentication"}
shown = 0
for record in result.collector.records:
    if record.frame_name in names and shown < 20:
        print("  " + record.line())
        shown += 1

print("\n=== group membership ===")
for time, ssid, go, member in result.history.memberships:
    print(f"  {member} joined {ssid!r} (owner {go}) at t={time / 1e12:.6f}s")
