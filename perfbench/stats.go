package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTicks is the machine's CPU time from the cpu line of /proc/stat, in
// clock ticks summed over all CPUs: the total and the part a hypervisor
// gave to other guests (steal). Stolen time slows every timed figure of
// a run, so the run reports it to explain a slow run, not to correct it.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() (cpuTicks, error) {
	var t cpuTicks
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return t, fmt.Errorf("unexpected /proc/stat cpu line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return t, err
		}
		// guest and guest_nice (fields 9 and 10) are already in user
		// and nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealShareSince is the share of CPU time stolen between before and t.
func (t cpuTicks) stealShareSince(before cpuTicks) float64 {
	return ratio(float64(t.steal-before.steal), float64(t.total-before.total))
}

// resetPeakRSS restarts the kernel's peak resident set size (VmHWM) at
// the current size, so a part of the run can read its own peak.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// timing is a workload's result rate and result-time percentiles, with
// a note on what they were computed from for the report.
type timing struct {
	rate     float64 // results per second
	p50, p90 float64 // ms
	basis    string
}

// pooled is the timing of every result of a run: the results over the
// measured window, and the percentiles over all their times lat (ms).
func pooled(lat []float64, window time.Duration) timing {
	return timing{
		rate:  float64(len(lat)) / window.Seconds(),
		p50:   quantile(lat, 0.5),
		p90:   quantile(lat, 0.9),
		basis: fmt.Sprintf("all %d results, %.2f s", len(lat), window.Seconds()),
	}
}

// cellMedians is, for each cell, the median of its times over a run's
// repeats of it. On a shared host, bursts of other load slow every cell
// that runs in them; a cell's median over its repeats damps them, where
// the pooled p90 sits in the sparse tail between the slowest cells and
// moves most with the bursts.
func cellMedians(lat [][]float64) []float64 {
	med := make([]float64, len(lat))
	for i, l := range lat {
		med[i] = median(l)
	}
	return med
}

// endToEnd records the metrics every workload reports with tracing off:
// the median set-up time, the share of attempted operations that
// succeeded, the result rate and time percentiles t, and the peak RSS
// rss (MiB).
func (o *outcome) endToEnd(setups []float64, t timing, rss float64) {
	o.set("setup_s", median(setups))
	o.set("peak_rss_mb", rss)
	o.set("ok_frac", ratio(float64(o.attempted-o.failed), float64(o.attempted)))
	o.set("results_per_s", t.rate)
	o.set("result_ms_p50", t.p50)
	o.set("result_ms_p90", t.p90)
	o.line("setup_s            %.6f s (median of %d set-ups)", median(setups), len(setups))
	o.line("results_per_s      %.4f /s (%s)", t.rate, t.basis)
	o.line("result_ms_p50      %.4f ms (%s)", t.p50, t.basis)
	o.line("result_ms_p90      %.4f ms (%s)", t.p90, t.basis)
	o.line("peak_rss_mb        %.1f MB", rss)
	o.line("failed_frac        %.4f (%d failed of %d attempted)", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
}
