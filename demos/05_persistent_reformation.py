"""Persistent groups: form once, reform cheaply.

Two peers form a group with the persistent flag set, so both sides store the
credentials and the negotiated roles.  A later run injects those records
back into fresh devices: rediscovery recognizes the old partner, the owner
role is restored without any owner negotiation, and the client runs only the
second provisioning phase, i.e. half the authentication frames.
"""

from wfdsim import Simulation, parse_config, seconds

TEXT = """
numHosts = 2
**.host[0].wlan[0].mgmt.persistent = true
**.host[1].wlan[0].mgmt.persistent = true
"""

config = parse_config(TEXT)


def auth_count(result):
    return sum(tx.frame_name == "Authentication" for tx in result.trace)


def goneg_count(result):
    return sum(tx.frame_name.startswith("GO Negotiation") for tx in result.trace)


first = Simulation(config, seed=5).run(until=seconds(10))
print("=== first formation (standard, persistent flag set) ===")
print(f"  owner:       {first.history.go_events[0][1]}")
print(f"  auth frames: {auth_count(first)}")
print(f"  negotiation: {goneg_count(first)} frames")
print("  stored records:")
for host, records in first.persistent_records.items():
    for record in records:
        print(f"    {host}: peer={record.peer} ssid={record.ssid!r} "
              f"role={record.my_role}")

second = Simulation(config, seed=321,
                    persistent_records=first.persistent_records).run(
    until=seconds(15))
print("\n=== reinvocation (records injected into fresh devices) ===")
print(f"  owner:       {second.history.go_events[0][1]} (restored)")
print(f"  auth frames: {auth_count(second)} (phase 2 only)")
print(f"  negotiation: {goneg_count(second)} frames")
print(f"  final:       {second.final_states}")
