// The host-speed sentinel: a fixed ALU loop plus a fixed random walk over a
// 4 MiB buffer (twice a core's 2 MiB L2 on the reference host, so it also
// feels the shared L3 and memory). Timed between rounds and reported as run
// context, never as a metric: when a metric moves together with the
// sentinel, the host drifted; when it moves alone, the code did.
#pragma once

namespace perfbench {

struct SentinelTimes {
  double alu_us = 0;
  double mem_us = 0;
};

SentinelTimes run_sentinel();

// The machine's CPU time so far, from the first line of /proc/stat (zeros
// when it cannot be read). Steal is time this VM's CPUs were runnable but
// the hypervisor ran another guest: the share of it over a run is the
// clearest sign of a noisy neighbour, which the probe above can miss.
struct HostCpu {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};
HostCpu read_host_cpu();

// Percent of CPU time stolen between two readings.
double steal_percent(const HostCpu& from, const HostCpu& to);

}  // namespace perfbench
