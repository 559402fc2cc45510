"""Connectivity test: pings relayed by the group owner.

In the autonomous scenario host[1] pings the owner directly, while
host[2] pings host[1]; the second flow crosses the group owner twice per
direction because clients never talk to each other in one hop.  The script
shows one relayed round trip frame by frame and the resulting statistics.
"""

from pathlib import Path

from wfdsim import Simulation, parse_config, seconds

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "scenario2_autonomous.ini"

config = parse_config(CONFIG.read_text(encoding="utf-8"))
sim = Simulation(config, seed=15)
result = sim.run(until=seconds(8))

print("=== the fifth pings of both apps, as delivered ===")
print("(host[1]'s request goes straight to the owner; host[2]'s request and")
print("its reply are each relayed by host[0], so they appear twice)\n")
tag = "ping5"
for record in result.collector.records:
    if record.frame_name in (tag, f"{tag}-reply"):
        print("  " + record.line())

print("\n=== ping statistics ===")
for app in sim.traffic.apps:
    stats = app.stats
    rtts = [f"{rtt / 1e9:.3f} ms" for rtt in stats.rtts[:3]]
    print(f"  {app.config.owner} -> {app.config.dest}: "
          f"sent {stats.sent}, replies {stats.replies}, "
          f"first rtts {rtts}")

print("\nNote the asymmetry: the direct flow's round trip is shorter than")
print("the relayed flow's, which pays four airtimes instead of two.")
