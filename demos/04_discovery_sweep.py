"""Distribution of the discovery duration.

Two peers with default settings are simulated 100 times, run i with seed
``i << 16`` so that no two runs share a random stream; each run stops as
soon as both devices have found each other.  The discovery duration is
the time from the start of the scan until a device first enters negotiation
or joining.  With the frozen defaults the mean lands between two and three
seconds.
"""

from wfdsim import default_scenario, sweep_discovery

sweep = sweep_discovery(default_scenario(2), seeds=range(100))

print(f"runs:        {len(sweep.seeds)}")
print(f"samples:     {len(sweep.samples)} (two devices per run)")
print(f"mean:        {sweep.mean:.3f} s")
print(f"min / max:   {sweep.minimum:.3f} s / {sweep.maximum:.3f} s")
print(f"timeouts:    {len(sweep.timeouts)}")
print(f"wall clock:  {sweep.wall_seconds:.2f} s")
print()
print("histogram (0.5 s buckets):")
for bucket_start, count in sweep.histogram():
    print(f"  {bucket_start:4.1f} s | {'#' * count}{' ' if count else ''}({count})")
