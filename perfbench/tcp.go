package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"chc/internal/core"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/multiplex"
	"chc/internal/service"
	"chc/internal/telemetry"
)

// The networked workloads run every instance with f = 1 in the plane.
const (
	netF = 1
	netD = 2
)

// netInstance is one CC or vector instance of a networked workload.
type netInstance struct {
	vector bool
	inputs [][]float64
}

func netInstances(rng *rand.Rand, n, count int, vector func(k int) bool) []netInstance {
	out := make([]netInstance, count)
	for k := range out {
		out[k].vector = vector(k)
		out[k].inputs = make([][]float64, n)
		for i := range out[k].inputs {
			out[k].inputs[i] = randomPoint(rng, netD)
		}
	}
	return out
}

// netDecision is what the checks need from one networked instance.
type netDecision struct {
	outputs map[int][][]float64 // CC: vertices per process
	points  map[int][]float64   // vector: point per process
	rounds  map[int]int
}

// checkNet checks one fault-free networked instance: every process decides
// within eq. (19), every decided vertex or point lies in the hull of the
// inputs, and the decisions agree within ε.
func checkNet(inst netInstance, n int, dec netDecision) error {
	if err := checkTermination(n, nil, dec.rounds, roundBound(n, netD, epsilon, 0, inputUpper)); err != nil {
		return err
	}
	in := newHull(inst.inputs)
	if inst.vector {
		var pts [][]float64
		for i := 0; i < n; i++ {
			p, ok := dec.points[i]
			if !ok {
				return fmt.Errorf("process %d decided no point", i)
			}
			pts = append(pts, p)
		}
		if err := checkValidity(in, pts); err != nil {
			return err
		}
		return checkPointAgreement(pts, epsilon)
	}
	var polys [][][]float64
	for i := 0; i < n; i++ {
		vs, ok := dec.outputs[i]
		if !ok {
			return fmt.Errorf("process %d decided no polytope", i)
		}
		if err := checkValidity(in, vs); err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
		polys = append(polys, vs)
	}
	return checkAgreement(polys, epsilon)
}

// ---------------------------------------------------------------------------
// svc-tcp-wal: the resident service behind its HTTP/JSON API.

const (
	svcN       = 5
	svcCallers = 2
	// svcRetire is chcd's default WAL retention horizon (-wal-retire).
	svcRetire = 64
)

// svcStack is one running service with its API and a kept-alive client.
type svcStack struct {
	srv    *service.Server
	api    *service.API
	client *http.Client
	fs     *timingFS // nil on untraced passes
}

func (s *svcStack) close() {
	s.client.CloseIdleConnections()
	_ = s.api.Close()
	_ = s.srv.Close()
}

// startService starts the service with chcd's defaults over loopback TCP,
// journaling to an in-memory WAL, and waits for one warm-up instance.
func startService(warm netInstance, traced bool) (*svcStack, error) {
	walFS := newMemFS()
	st := &svcStack{}
	cfg := service.Config{
		N:         svcN,
		Transport: engine.TransportTCP,
		WALDir:    "wal",
		WALFS:     walFS,
		WALRetire: svcRetire,
	}
	if traced {
		st.fs = newTimingFS(walFS)
		cfg.WALFS = st.fs
	}
	srv, err := service.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("start service: %w", err)
	}
	api, err := srv.ServeAPI(service.APIConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		_ = srv.Close()
		return nil, fmt.Errorf("serve API: %w", err)
	}
	st.srv, st.api = srv, api
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcCallers}}
	if _, err := st.call(warm); err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up instance: %w", err)
	}
	return st, nil
}

// svcCall is the record of one instance served through the API.
type svcCall struct {
	submit, latency, inService time.Duration
	done                       time.Time
	dec                        netDecision
	err                        error
}

// statusBody is the part of the API's status response the benchmark reads.
type statusBody struct {
	ID        int                    `json:"id"`
	State     string                 `json:"state"`
	Submitted time.Time              `json:"submitted"`
	Finished  *time.Time             `json:"finished"`
	Error     string                 `json:"error"`
	Outputs   map[string][][]float64 `json:"outputs"`
	Points    map[string][]float64   `json:"points"`
	Rounds    map[string]int         `json:"rounds"`
}

// call submits one instance and long-polls /watch until it is decided.
func (s *svcStack) call(inst netInstance) (svcCall, error) {
	req := map[string]any{
		"protocol": "cc", "f": netF, "d": netD, "epsilon": epsilon,
		"input_lower": 0, "input_upper": inputUpper, "inputs": inst.inputs,
	}
	if inst.vector {
		req["protocol"] = "vector"
	}
	body, err := json.Marshal(req)
	if err != nil {
		return svcCall{}, err
	}
	var c svcCall
	start := time.Now()
	var sub statusBody
	if err := s.do(http.MethodPost, "/v1/instances", body, http.StatusAccepted, &sub); err != nil {
		return c, err
	}
	c.submit = time.Since(start)
	var st statusBody
	for {
		if err := s.do(http.MethodGet, "/v1/instances/"+strconv.Itoa(sub.ID)+"/watch?timeout_ms=60000", nil, http.StatusOK, &st); err != nil {
			return c, err
		}
		if st.State != "queued" && st.State != "running" {
			break
		}
	}
	c.done = time.Now()
	c.latency = c.done.Sub(start)
	if st.State != "decided" {
		return c, fmt.Errorf("instance %d ended %s: %s", st.ID, st.State, st.Error)
	}
	c.inService = st.Finished.Sub(st.Submitted)
	c.dec = netDecision{outputs: map[int][][]float64{}, points: map[int][]float64{}, rounds: map[int]int{}}
	for k, v := range st.Outputs {
		id, _ := strconv.Atoi(k)
		c.dec.outputs[id] = v
	}
	for k, v := range st.Points {
		id, _ := strconv.Atoi(k)
		c.dec.points[id] = v
	}
	for k, v := range st.Rounds {
		id, _ := strconv.Atoi(k)
		c.dec.rounds[id] = v
	}
	return c, nil
}

func (s *svcStack) do(method, path string, body []byte, want int, into any) error {
	req, err := http.NewRequest(method, s.api.URL()+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

func runService(cfg runConfig) (outcome, error) {
	rng := workloadRand("svc-tcp-wal", cfg.seed)
	nSetups := setups
	if cfg.trace {
		nSetups = 1
	}
	warm := netInstances(rng, svcN, setups, func(int) bool { return false })[:nSetups]
	// Caller c serves instances c, c+2, c+4, ...; its j-th is CC when j+c
	// is even, so the two callers keep one CC and one vector in flight.
	insts := netInstances(rng, svcN, cfg.ops, func(k int) bool { return (k/svcCallers+k%svcCallers)%2 == 1 })

	out, err := servicePass(warm, insts, false)
	if err != nil || !cfg.trace {
		return out, err
	}
	traced, err := servicePass(warm, insts, true)
	return withTraceOverhead(traced, out), err
}

// servicePass sets the service up (median of len(warm) set-ups), serves
// insts with svcCallers closed-loop callers, and checks every decision. It
// returns the end-to-end metrics, or on a traced pass the per-layer ones.
func servicePass(warm, insts []netInstance, traced bool) (outcome, error) {
	if traced {
		resetCaches()
		prev := telemetry.Enable(true)
		defer telemetry.Enable(prev)
	}
	i := 0
	st, setup, err := measureSetup(func() (*svcStack, func(), error) {
		s, err := startService(warm[i], traced)
		i++
		if err != nil {
			return nil, nil, err
		}
		return s, s.close, nil
	}, len(warm))
	if err != nil {
		return outcome{}, err
	}
	defer st.close()

	calls := make([]svcCall, len(insts))
	var wal0 walStats
	if st.fs != nil {
		wal0 = st.fs.stats()
	}
	before := startProbe()
	c0, start := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < svcCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(insts); k += svcCallers {
				calls[k], calls[k].err = st.call(insts[k])
			}
		}(c)
	}
	wg.Wait()
	wall, cpu := time.Since(start), cpuTime()-c0

	out := outcome{attempted: len(insts)}
	for k, c := range calls {
		err := c.err
		if err == nil {
			err = checkNet(insts[k], svcN, c.dec)
		}
		if err != nil {
			out.failed++
			fmt.Printf("# FAIL instance %d: %v\n", k, err)
		}
	}
	if !traced {
		lat := make([]float64, len(calls))
		for i, c := range calls {
			lat[i] = ms(c.latency)
		}
		out.metrics = endToEnd(setup, len(insts), wall, cpu, lat)
		return out, nil
	}

	n := float64(len(insts))
	wal1 := st.fs.stats()
	m := perLayer()
	setNetLayers(m, before.tel, before.finish(m, n, wall), n)
	set := func(name string, v float64) { m[name] = metric{v, layerUnits[name]} }
	var walBytes int64
	for kind, b := range wal1.bytes {
		walBytes += b - wal0.bytes[kind]
	}
	set("wal.bytes_per_instance", float64(walBytes)/n)
	set("wal.snapshot_bytes_per_instance", float64(wal1.bytes["snapshot"]-wal0.bytes["snapshot"])/n)
	set("wal.syncs_per_instance", float64(wal1.syncs-wal0.syncs)/n)
	set("wal.sync_ms_per_instance", ms(wal1.sync-wal0.sync)/n)
	set("wal.write_ms_per_instance", ms(wal1.write-wal0.write)/n)
	var submit, inSvc, api []float64
	done := make([]time.Time, 0, len(calls))
	for _, c := range calls {
		submit = append(submit, ms(c.submit))
		inSvc = append(inSvc, ms(c.inService))
		api = append(api, ms(c.latency-c.inService))
		done = append(done, c.done)
	}
	set("service.submit_ms_p50", median(submit))
	set("service.in_service_ms_p50", median(inSvc))
	set("service.api_ms_p50", median(api))
	set("service.rate_last_vs_first_fifth", fifthRates(start, done))
	out.metrics = m
	return out, nil
}

// fifthRates returns the completion rate over the last fifth of the
// instances divided by the rate over the first fifth.
func fifthRates(start time.Time, done []time.Time) float64 {
	sorted := append([]time.Time(nil), done...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Before(sorted[b]) })
	k := len(sorted) / 5
	if k == 0 {
		return 0
	}
	first := sorted[k-1].Sub(start).Seconds()
	last := sorted[len(sorted)-1].Sub(sorted[len(sorted)-1-k]).Seconds()
	return (float64(k) / last) / (float64(k) / first)
}

// setNetLayers fills the transport and WAL checkpoint metrics from two
// telemetry snapshots taken around n instances.
func setNetLayers(m map[string]metric, before, after *telemetry.Snapshot, n float64) {
	set := func(name string, v float64) { m[name] = metric{v, layerUnits[name]} }
	delta := func(name string) float64 { return counterTotal(after, name) - counterTotal(before, name) }
	set("runtime.sends_per_instance", delta("chc_runtime_sends_total")/n)
	set("rlink.frames_per_instance", delta("chc_rlink_frames_sent_total")/n)
	set("rlink.retransmits_per_instance", delta("chc_rlink_retransmits_total")/n)
	fs0, fc0 := histTotals(before, "chc_wire_batch_frames")
	fs1, fc1 := histTotals(after, "chc_wire_batch_frames")
	if fc1 > fc0 {
		set("wire.frames_per_write", (fs1-fs0)/(fc1-fc0))
	}
	bs0, _ := histTotals(before, "chc_wire_batch_bytes")
	bs1, _ := histTotals(after, "chc_wire_batch_bytes")
	set("wire.bytes_per_instance", (bs1-bs0)/n)
	set("wal.checkpoints", delta("chc_wal_checkpoints_total"))
}

// ---------------------------------------------------------------------------
// batch-tcp-n7: multiplex.RunBatch over a fresh TCP cluster per batch.

const (
	batchN    = 7
	batchSize = 8
)

func runBatch(cfg runConfig) (outcome, error) {
	rng := workloadRand("batch-tcp-n7", cfg.seed)
	nSetups := setups
	if cfg.trace {
		nSetups = 1
	}
	alternate := func(k int) bool { return k%2 == 1 }
	warm := make([][]netInstance, setups)
	for i := range warm {
		warm[i] = netInstances(rng, batchN, batchSize, alternate)
	}
	batches := make([][]netInstance, cfg.ops/batchSize)
	for i := range batches {
		batches[i] = netInstances(rng, batchN, batchSize, alternate)
	}

	out, err := batchPass(warm[:nSetups], batches, false)
	if err != nil || !cfg.trace {
		return out, err
	}
	traced, err := batchPass(warm[:nSetups], batches, true)
	return withTraceOverhead(traced, out), err
}

// batchConfig translates one batch into a RunBatch configuration.
func batchConfig(batch []netInstance) multiplex.BatchConfig {
	cfg := multiplex.BatchConfig{N: batchN, Transport: engine.TransportTCP}
	for _, inst := range batch {
		mi := multiplex.Instance{
			Params: core.Params{N: batchN, F: netF, D: netD, Epsilon: epsilon, InputUpper: inputUpper},
			Inputs: make([]geom.Point, batchN),
		}
		if inst.vector {
			mi.Protocol = multiplex.ProtocolVector
		}
		for i, x := range inst.inputs {
			mi.Inputs[i] = geom.Point(x)
		}
		cfg.Instances = append(cfg.Instances, mi)
	}
	return cfg
}

// batchPass sets up with warm-up batches (median), runs batches one after
// another and checks every instance. It returns the end-to-end metrics, or
// on a traced pass the per-layer ones.
func batchPass(warm, batches [][]netInstance, traced bool) (outcome, error) {
	if traced {
		resetCaches()
		prev := telemetry.Enable(true)
		defer telemetry.Enable(prev)
	}
	i := 0
	_, setup, err := measureSetup(func() (struct{}, func(), error) {
		_, err := multiplex.RunBatch(batchConfig(warm[i]))
		i++
		return struct{}{}, func() {}, err
	}, len(warm))
	if err != nil {
		return outcome{}, fmt.Errorf("warm-up batch: %w", err)
	}

	before := startProbe()
	out := outcome{attempted: len(batches) * batchSize}
	var (
		wall, cpu time.Duration
		lat       []float64
	)
	for b, batch := range batches {
		c0, t0 := cpuTime(), time.Now()
		res, err := multiplex.RunBatch(batchConfig(batch))
		d := time.Since(t0)
		cpu += cpuTime() - c0
		wall += d
		lat = append(lat, ms(d))
		for k, inst := range batch {
			err := err
			if err == nil {
				err = checkNet(inst, batchN, batchDecision(res, k))
			}
			if err != nil {
				out.failed++
				fmt.Printf("# FAIL batch %d instance %d: %v\n", b, k, err)
			}
		}
	}
	if !traced {
		out.metrics = endToEnd(setup, out.attempted, wall, cpu, lat)
		return out, nil
	}
	n := float64(out.attempted)
	m := perLayer()
	after := before.finish(m, n, wall)
	setNetLayers(m, before.tel, after, n)
	walAppends := counterTotal(after, "chc_wal_appends_total") - counterTotal(before.tel, "chc_wal_appends_total")
	out.metrics = m
	out.checks = append(out.checks, fmt.Sprintf("# check WAL appends during the batches: %.0f (no WAL on this path)", walAppends))
	return out, nil
}

// batchDecision extracts instance k's decisions from a batch result.
func batchDecision(res *multiplex.BatchResult, k int) netDecision {
	dec := netDecision{outputs: map[int][][]float64{}, points: map[int][]float64{}, rounds: map[int]int{}}
	for id, p := range res.Outputs[k] {
		dec.outputs[int(id)] = vertsOf(p)
	}
	for id, p := range res.Points[k] {
		dec.points[int(id)] = []float64(p)
	}
	for id, r := range res.Rounds[k] {
		dec.rounds[int(id)] = r
	}
	return dec
}
