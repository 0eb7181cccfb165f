package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/stablevector"
	"chc/internal/telemetry"
)

// Every instance of every workload uses ε = 0.1 and the input domain
// [0, 10]^d.
const (
	epsilon    = 0.1
	inputUpper = 10.0
)

// simShape is the configuration of a simulator workload; shape(k) is the
// seed of its k-th instance shape (see simInstances).
type simShape struct {
	n, f, d int
	shape   func(k int) int64
}

func runSimN16(cfg runConfig) (outcome, error) {
	return runSim(cfg, "cc-sim-n16-d2", simShape{n: 16, f: 1, d: 2,
		shape: func(k int) int64 { return int64(k + 1) }})
}

func runSimN11(cfg runConfig) (outcome, error) {
	return runSim(cfg, "cc-sim-n11-d3", simShape{n: 11, f: 2, d: 3,
		shape: func(k int) int64 { return n11Shapes[k%len(n11Shapes)] }})
}

// n11Shapes seed the instance shapes of cc-sim-n11-d3: the first twelve of
// seeds 1, 2, ... whose round-0 polytope over all n inputs has at most 22
// vertices. About 60% of uniform draws have more than 28; the 9-state
// average then exceeds the combine cache's 256-vertex key limit and one
// instance takes over 20 minutes instead of 3-6 s (see CHANGES.md), so such
// draws cannot be part of a run that must end within minutes. The order
// puts the three cheapest shapes first, as warm-ups, and then five of
// similar cost (3.5-4.5 s on the reference host), so the median of the
// six measured in a default run sits among shapes close in cost.
// TestN11ShapesStayBelowCacheLimit keeps the list honest.
var n11Shapes = []int64{48, 34, 4, 29, 45, 18, 47, 12, 2, 13, 25, 27}

// workloadRand returns the input stream of one workload: seeded by the
// -seed argument and the workload's name, so workloads never share inputs.
func workloadRand(name string, seed int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// randomPoint draws a point uniformly from [0, 10]^d.
func randomPoint(rng *rand.Rand, d int) geom.Point {
	p := make(geom.Point, d)
	for i := range p {
		p[i] = rng.Float64() * inputUpper
	}
	return p
}

// simConfig draws one Algorithm CC instance under the incorrect-inputs
// model: inputs uniform in [0,10]^d; f faulty processes (whose inputs are
// the incorrect ones), each crashing in the middle of one of its first 3n
// broadcasts; and a scheduler seed.
func simConfig(rng *rand.Rand, s simShape) core.RunConfig {
	cfg := core.RunConfig{
		Params: core.Params{N: s.n, F: s.f, D: s.d, Epsilon: epsilon, InputUpper: inputUpper},
		Inputs: make([]geom.Point, s.n),
	}
	for i := range cfg.Inputs {
		cfg.Inputs[i] = randomPoint(rng, s.d)
	}
	for _, i := range rng.Perm(s.n)[:s.f] {
		id := dist.ProcID(i)
		cfg.Faulty = append(cfg.Faulty, id)
		// A broadcast is n-1 sends; landing strictly inside one cuts it short.
		after := (1+rng.Intn(3*s.n))*(s.n-1) + 1 + rng.Intn(s.n-2)
		cfg.Crashes = append(cfg.Crashes, dist.CrashPlan{Proc: id, AfterSends: after})
	}
	cfg.Seed = rng.Int63()
	return cfg
}

// simInstances returns setups warm-up instances followed by ops measured
// ones. Instance k is shape k (inputs, faulty set, crash plan, scheduler
// seed) under a seeded similarity map x -> s·x + (1-s)·c, with s uniform in
// [0.9, 1] and c uniform in the domain: every input moves (by up to one
// unit), stays inside [0,10]^d, and the geometry keeps its combinatorics.
// An instance's cost moves by ±25% with its schedule and vertex counts, so
// freshly drawn instances would make a run of tens of them unsteady;
// mapped shapes keep the work of every run alike while no two seeds share
// an input.
func simInstances(name string, seed int64, s simShape, ops int) (warm, insts []core.RunConfig) {
	rng := workloadRand(name, seed)
	all := make([]core.RunConfig, setups+ops)
	for k := range all {
		all[k] = simConfig(rand.New(rand.NewSource(s.shape(k))), s)
		scale := 0.9 + 0.1*rng.Float64()
		center := randomPoint(rng, s.d)
		for _, x := range all[k].Inputs {
			for j := range x {
				x[j] = math.Min(inputUpper, math.Max(0, scale*x[j]+(1-scale)*center[j]))
			}
		}
	}
	return all[:setups], all[setups:]
}

// runSim runs a simulator workload: warm-up instances (setup_s is their
// median), then cfg.ops measured instances one after another, each checked
// after it ran.
func runSim(cfg runConfig, name string, s simShape) (outcome, error) {
	warm, insts := simInstances(name, cfg.seed, s, cfg.ops)
	if cfg.trace {
		warm = warm[:1]
	}

	i := 0
	_, setup, err := measureSetup(func() (struct{}, func(), error) {
		_, err := core.Run(warm[i])
		i++
		return struct{}{}, func() {}, err
	}, len(warm))
	if err != nil {
		return outcome{}, fmt.Errorf("warm-up instance: %w", err)
	}

	out := outcome{attempted: len(insts)}
	var (
		wall, cpu time.Duration
		lat       []float64
	)
	for k, ic := range insts {
		c0, t0 := cpuTime(), time.Now()
		res, err := core.Run(ic)
		d := time.Since(t0)
		cpu += cpuTime() - c0
		wall += d
		lat = append(lat, ms(d))
		if err == nil {
			err = checkSim(ic, simOutputs(res))
		}
		if err != nil {
			out.failed++
			fmt.Printf("# FAIL instance %d: %v\n", k, err)
		}
	}
	out.metrics = endToEnd(setup, len(insts), wall, cpu, lat)
	if !cfg.trace {
		return out, nil
	}
	traced, err := traceSim(insts)
	return withTraceOverhead(traced, out), err
}

// simResult is what the checks need from one simulator instance.
type simResult struct {
	crashed map[int]bool
	outputs map[int][][]float64
	rounds  map[int]int
}

func simOutputs(res *core.RunResult) simResult {
	r := simResult{crashed: map[int]bool{}, outputs: map[int][][]float64{}, rounds: map[int]int{}}
	for id := range res.Crashed {
		r.crashed[int(id)] = true
	}
	for id, p := range res.Outputs {
		r.outputs[int(id)] = vertsOf(p)
		if tr := res.Traces[id].Rounds; len(tr) > 0 {
			r.rounds[int(id)] = tr[len(tr)-1].Round
		}
	}
	return r
}

func vertsOf(p *polytope.Polytope) [][]float64 {
	vs := p.Vertices()
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = []float64(v)
	}
	return out
}

// checkSim checks one simulator instance: termination within eq. (19),
// then validity against the hull of the correct (non-faulty) inputs and
// ε-agreement between the decisions of the fault-free processes.
func checkSim(ic core.RunConfig, r simResult) error {
	p := ic.Params
	tEnd := roundBound(p.N, p.D, p.Epsilon, p.InputLower, p.InputUpper)
	if err := checkTermination(p.N, r.crashed, r.rounds, tEnd); err != nil {
		return err
	}
	faulty := map[dist.ProcID]bool{}
	for _, id := range ic.Faulty {
		faulty[id] = true
	}
	var correct [][]float64
	for i, x := range ic.Inputs {
		if !faulty[dist.ProcID(i)] {
			correct = append(correct, x)
		}
	}
	in := newHull(correct)
	var polys [][][]float64
	for i := 0; i < p.N; i++ {
		if r.crashed[i] || faulty[dist.ProcID(i)] {
			continue
		}
		if err := checkValidity(in, r.outputs[i]); err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
		polys = append(polys, r.outputs[i])
	}
	return checkAgreement(polys, p.Epsilon)
}

// countingScheduler delegates every pick to the random scheduler (so the
// schedule is the one core.Run would produce for the same seed) and counts
// picks and the channels offered to each.
type countingScheduler struct {
	inner    dist.RandomScheduler
	picks    int
	channels int
}

func (s *countingScheduler) Pick(ch []dist.ChannelState, rng *rand.Rand) int {
	s.picks++
	s.channels += len(ch)
	return s.inner.Pick(ch, rng)
}

// timedProcess wraps an Algorithm CC participant and adds the time spent in
// its handlers to busy.
type timedProcess struct {
	*core.Process
	busy *time.Duration
}

func (p *timedProcess) Init(ctx dist.Context) {
	t := time.Now()
	p.Process.Init(ctx)
	*p.busy += time.Since(t)
}

func (p *timedProcess) Deliver(ctx dist.Context, msg dist.Message) {
	t := time.Now()
	p.Process.Deliver(ctx, msg)
	*p.busy += time.Since(t)
}

// tracedRun is what the geometry replay needs from one traced instance.
type tracedRun struct {
	params core.Params
	traces []core.Trace
}

// traceSim re-runs the measured instances with the simulator's scheduler
// and every participant wrapped, then replays each run's geometry from its
// trace, and returns the per-layer metrics.
func traceSim(insts []core.RunConfig) (outcome, error) {
	resetCaches()
	prevTel := telemetry.Enable(true)
	defer telemetry.Enable(prevTel)
	out := outcome{attempted: len(insts)}
	var (
		wall, handler             time.Duration
		deliveries, svMsgs, rMsgs int
		decidedRounds, decided    int
		runs                      []tracedRun
	)
	sched := &countingScheduler{}
	before := startProbe()
	for k, ic := range insts {
		ic.Params = ic.Params.WithDefaults()
		var busy time.Duration
		base := ic.Spec()
		spec := engine.InstanceSpec{New: func(id dist.ProcID) (dist.Process, error) {
			p, err := base.New(id)
			if err != nil {
				return nil, err
			}
			return &timedProcess{Process: p.(*core.Process), busy: &busy}, nil
		}}
		t0 := time.Now()
		res, err := engine.Run(engine.Spec{N: ic.Params.N, Instances: []engine.InstanceSpec{spec}},
			engine.Options{Seed: ic.Seed, Scheduler: sched, Crashes: ic.Crashes})
		wall += time.Since(t0)
		handler += busy
		if err != nil {
			out.failed++
			fmt.Printf("# FAIL traced instance %d: %v\n", k, err)
			continue
		}
		deliveries += res.Stats.Deliveries
		svMsgs += res.Stats.KindCounts[stablevector.KindReport]
		rMsgs += res.Stats.KindCounts[core.KindState]
		r := simResult{crashed: map[int]bool{}, outputs: map[int][][]float64{}, rounds: map[int]int{}}
		tr := make([]core.Trace, ic.Params.N)
		for i := 0; i < ic.Params.N; i++ {
			id := dist.ProcID(i)
			p := res.Sub(0, id).(*timedProcess)
			tr[i] = p.TraceData()
			if res.Crashed[id] {
				r.crashed[i] = true
				continue
			}
			poly, err := p.Output()
			if err != nil {
				continue // undecided: the termination check reports it
			}
			r.outputs[i] = vertsOf(poly)
			if rounds := tr[i].Rounds; len(rounds) > 0 {
				r.rounds[i] = rounds[len(rounds)-1].Round
				decidedRounds += r.rounds[i]
				decided++
			}
		}
		runs = append(runs, tracedRun{ic.Params, tr})
		if err := checkSim(ic, r); err != nil {
			out.failed++
			fmt.Printf("# FAIL traced instance %d: %v\n", k, err)
		}
	}
	n := float64(len(insts))
	m := perLayer()
	before.finish(m, n, wall)

	var round0, average time.Duration
	for k, tr := range runs {
		r0, avg, err := replayGeometry(tr.params, tr.traces)
		if err != nil {
			return outcome{}, fmt.Errorf("geometry replay of instance %d: %w", k, err)
		}
		round0 += r0
		average += avg
	}

	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("dist.deliveries", float64(deliveries)/n)
	set("dist.channels_per_pick", float64(sched.channels)/float64(sched.picks))
	set("dist.self_ms", ms(wall-handler)/n)
	set("core.handler_ms", ms(handler)/n)
	set("core.msgs_stablevector", float64(svMsgs)/n)
	set("core.msgs_round", float64(rMsgs)/n)
	set("core.decided_round", float64(decidedRounds)/float64(decided))
	set("geom.round0_ms", ms(round0)/n)
	set("geom.average_ms", ms(average)/n)
	out.metrics = m
	out.checks = append(out.checks,
		fmt.Sprintf("# check core.handler_ms + dist.self_ms = %.3f ms = traced wall %.3f ms per instance",
			ms(handler)/n+ms(wall-handler)/n, ms(wall)/n),
		fmt.Sprintf("# share of traced wall: dist.self %.1f%%, core.handler %.1f%%, geometry replay %.1f%%",
			100*float64(wall-handler)/float64(wall), 100*float64(handler)/float64(wall),
			100*float64(round0+average)/float64(wall)))
	return out, nil
}

// replayGeometry re-executes the geometry of one traced run with the
// process-wide caches reset first: core.InitialPolytope on every stable
// vector result (line 5), then, round by round, polytope.New on each
// sender's previous-round state and polytope.Average over them (line 14).
func replayGeometry(params core.Params, traces []core.Trace) (round0, average time.Duration, err error) {
	resetCaches()
	t0 := time.Now()
	for _, tr := range traces {
		if tr.R0Entries == nil {
			continue
		}
		xi := make([]geom.Point, len(tr.R0Entries))
		for k, e := range tr.R0Entries {
			xi[k] = e.Value
		}
		if _, err := core.InitialPolytope(params, xi); err != nil {
			return 0, 0, err
		}
	}
	round0 = time.Since(t0)

	state := func(j dist.ProcID, t int) []geom.Point {
		if t == 0 {
			return traces[j].H0
		}
		return traces[j].Rounds[t-1].State
	}
	t0 = time.Now()
	for t := 1; ; t++ {
		more := false
		for _, tr := range traces {
			if len(tr.Rounds) < t {
				continue
			}
			more = true
			rec := tr.Rounds[t-1]
			polys := make([]*polytope.Polytope, len(rec.Senders))
			for k, j := range rec.Senders {
				if polys[k], err = polytope.New(state(j, t-1), params.GeomEps); err != nil {
					return 0, 0, err
				}
			}
			if _, err := polytope.Average(polys, params.GeomEps); err != nil {
				return 0, 0, err
			}
		}
		if !more {
			break
		}
	}
	average = time.Since(t0)
	return round0, average, nil
}
