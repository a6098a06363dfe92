package cluster

import (
	"fmt"
	"math"
	"sort"

	"ncap/internal/audit"
	"ncap/internal/netsim"
	"ncap/internal/sim"
)

// Sharded single-run execution (ROADMAP item 2, SimBricks' trick): the
// compiled graph is partitioned across Config.Shards engines, each
// advancing its own timer wheel on its own goroutine. Links whose
// endpoints land on different shards become boundaries (netsim shard
// ports): a frame crossing one is staged, and the coordinator injects it
// on the destination engine between rounds.
//
// Synchronization is conservative, with the link propagation latency as
// lookahead. Each round:
//
//  1. bᵢ = engineᵢ.NextEventBound() — a lower bound on shard i's next
//     event; m = min over shards. If m > until, the phase is done.
//  2. Every shard with bᵢ ≤ H runs to the horizon H = min(m+L−1, until),
//     where L is the smallest latency over boundary links. Any frame a
//     shard sends while running fires at t ≥ m, so it arrives at
//     t + link.Latency ≥ m + L > H: nothing that happens inside a round
//     can affect the same round — shards never see each other mid-round.
//     H is inclusive (Run fires events at exactly H), hence the −1.
//  3. Staged frames are drained, sorted into a canonical partition-
//     independent order (netsim.Frame.Less) and injected.
//
// Progress: after Run(H) a shard's bound exceeds H (Run only stops early
// once every remaining event is proven past the limit), so m advances by
// at least L per round. Termination of a phase is exact: m > until means
// no shard holds an event at or before until — the closing barrier run
// just aligns every clock at the phase boundary and fires nothing, so
// measurement-boundary resets and snapshots see the same quiesced state
// a serial run would.
//
// Determinism: locally, each engine replays the exact serial order
// (sim.Event ordering is unchanged for local events). Injected
// deliveries are ordered by (arrival, send time, link identity, frame
// index) — every key independent of the shard count and of round timing
// — so any shard count produces the same execution. Equality against
// the fully serial run is asserted by TestShardedEquality.

const infTime = sim.Time(math.MaxInt64)

// ShardStats summarizes one sharded run's synchronization behavior.
type ShardStats struct {
	// Shards is the effective partition count after clamping (1 =
	// serial: the run never constructed a coordinator).
	Shards int
	// Bridged counts cross-shard boundary links.
	Bridged int
	// Rounds is the number of synchronization rounds (global barriers).
	Rounds uint64
	// Stalls counts shard-rounds a partition sat out because its next
	// event lay beyond the conservative horizon — the coordination
	// overhead near-linear scaling depends on keeping low.
	Stalls uint64
	// Injected counts frames delivered across shard boundaries.
	Injected uint64
}

// shardSet is the coordinator: the engines, their outboxes, the worker
// goroutines and the conservative-sync round loop.
type shardSet struct {
	engs      []*sim.Engine
	outboxes  []*netsim.Outbox
	lookahead sim.Duration // min latency over boundary links

	started bool
	cmd     []chan sim.Time // per-shard run-to-horizon commands
	done    chan int        // round completions (any shard)
	panics  []any           // worker panics, re-raised at the barrier

	bounds []sim.Time
	frames []netsim.Frame
	stats  ShardStats
}

func newShardSet(engs []*sim.Engine, outboxes []*netsim.Outbox) *shardSet {
	return &shardSet{
		engs: engs, outboxes: outboxes,
		// No boundary links (a disconnected partitioning) means no
		// lookahead constraint: each round runs straight to the phase
		// end. Bridges registered later only shrink this.
		lookahead: infTime / 2,
		bounds:    make([]sim.Time, len(engs)),
		stats:     ShardStats{Shards: len(engs)},
	}
}

// addBridge records one boundary link's latency; the smallest over all
// boundaries is the synchronization lookahead.
func (s *shardSet) addBridge(latency sim.Duration) {
	if latency < s.lookahead {
		s.lookahead = latency
	}
	s.stats.Bridged++
}

func (s *shardSet) start() {
	s.started = true
	s.cmd = make([]chan sim.Time, len(s.engs))
	s.done = make(chan int, len(s.engs))
	s.panics = make([]any, len(s.engs))
	for i := range s.engs {
		s.cmd[i] = make(chan sim.Time)
		go s.worker(i)
	}
}

// stop retires the worker goroutines. Advance may not be called again.
func (s *shardSet) stop() {
	if !s.started {
		return
	}
	s.started = false
	for _, ch := range s.cmd {
		close(ch)
	}
}

func (s *shardSet) worker(i int) {
	for until := range s.cmd[i] {
		s.runOne(i, until)
	}
}

// runOne advances shard i to the horizon, converting a panic into a
// deferred re-raise on the coordinator so a failing shard cannot
// deadlock the barrier.
func (s *shardSet) runOne(i int, until sim.Time) {
	defer func() {
		if r := recover(); r != nil {
			s.panics[i] = r
		}
		s.done <- i
	}()
	s.engs[i].Run(until)
}

func (s *shardSet) checkPanics() {
	for i, p := range s.panics {
		if p != nil {
			panic(fmt.Sprintf("cluster: shard %d: %v", i, p))
		}
	}
}

// exchange drains every outbox, orders the frames canonically and
// injects them on their destination engines. Runs on the coordinator
// goroutine while every shard is parked at the barrier.
func (s *shardSet) exchange() {
	fr := s.frames[:0]
	for _, o := range s.outboxes {
		fr = o.DrainInto(fr)
	}
	if len(fr) > 0 {
		sort.Slice(fr, func(i, j int) bool { return fr[i].Less(fr[j]) })
		for _, f := range fr {
			f.Inject()
		}
		s.stats.Injected += uint64(len(fr))
	}
	s.frames = fr[:0]
}

// Advance runs every shard to the phase boundary: the sharded equivalent
// of Engine.Run(until), leaving all clocks at until and no event at or
// before it unfired.
func (s *shardSet) Advance(until sim.Time) {
	if !s.started {
		s.start()
	}
	for {
		// Deliver frames staged by the previous round (or by pre-run
		// setup) first: injections can lower a shard's bound.
		s.exchange()
		m := infTime
		for i, e := range s.engs {
			b := e.NextEventBound()
			s.bounds[i] = b
			if b < m {
				m = b
			}
		}
		if m > until {
			break
		}
		h := m + s.lookahead - 1
		if h > until || h < m {
			h = until
		}
		ran := 0
		for i := range s.engs {
			if s.bounds[i] <= h {
				s.cmd[i] <- h
				ran++
			}
		}
		s.stats.Stalls += uint64(len(s.engs) - ran)
		for ; ran > 0; ran-- {
			<-s.done
		}
		s.checkPanics()
		s.stats.Rounds++
	}
	// Closing barrier: align every clock at the boundary (fires nothing;
	// see the progress argument above).
	for i := range s.engs {
		s.cmd[i] <- until
	}
	for range s.engs {
		<-s.done
	}
	s.checkPanics()
}

// effectiveShards resolves the partition count a config actually runs
// with. Serial (1) whenever sharding is off, the run needs a single
// observer (telemetry, audit, time-series tracing, trace recording — all
// read cross-node state from one goroutine), or a zero link latency
// leaves no lookahead to synchronize with. The count is also clamped to
// the number of partitionable units so surplus shards do not spin empty
// engines through every barrier.
func (c Config) effectiveShards() int {
	n := c.Shards
	if n <= 1 {
		return 1
	}
	if c.Telemetry != nil || c.Audit || audit.Strict ||
		c.TraceInterval > 0 || c.Recording() {
		return 1
	}
	for _, l := range c.linkConfigs() {
		if l.Latency <= 0 {
			return 1
		}
	}
	if u := c.shardableUnits(); n > u {
		n = u
	}
	return n
}

// linkConfigs returns every link configuration a compiled run may wire,
// for the zero-latency clamp. Conservative: a candidate that ends up
// unused (e.g. Config.Link fully overridden by the spec) still counts.
func (c Config) linkConfigs() []netsim.LinkConfig {
	out := []netsim.LinkConfig{c.Link}
	if t := c.Topology; t != nil {
		if t.Link != nil {
			out = append(out, *t.Link)
		}
		if t.Uplink != nil {
			out = append(out, *t.Uplink)
		}
		for gi := range t.Groups {
			if l := t.Groups[gi].Link; l != nil {
				out = append(out, *l)
			}
		}
	}
	return out
}

// shardableUnits counts the independently assignable components: server
// nodes, clients and switches (the bulk sender rides shard 0).
func (c Config) shardableUnits() int {
	if t := c.Topology; t != nil {
		return t.Servers() + t.Clients() + t.Racks + t.Spines
	}
	return 1 + c.Clients
}

// initShards builds the engine partitions before graph construction.
// Shard 0 reuses the primary engine so `-shards 1` is not merely
// equivalent but the very same code path and object graph.
func (c *Cluster) initShards(n int) {
	c.engs = make([]*sim.Engine, n)
	c.engs[0] = c.eng
	for i := 1; i < n; i++ {
		c.engs[i] = sim.NewEngine()
	}
	c.outboxes = make([]*netsim.Outbox, n)
	for i := range c.outboxes {
		c.outboxes[i] = &netsim.Outbox{}
	}
	c.shards = newShardSet(c.engs, c.outboxes)
}

// shardOf assigns unit i of a component class (servers, clients, ToRs,
// spines — each indexed from 0) to a shard, round-robin. The mapping is
// a pure function of the config, never of the shard count's runtime
// behavior, and aligns racks with shards on the symmetric fleets: with
// Spread groups, server i lands in rack i%Racks, so at Shards == Racks
// every node shares a shard with its ToR and only trunks bridge.
func (c *Cluster) shardOf(i int) int {
	if c.shards == nil {
		return 0
	}
	return i % len(c.engs)
}

// shardEng returns the engine of shard sh (the primary engine serially).
func (c *Cluster) shardEng(sh int) *sim.Engine {
	if c.shards == nil {
		return c.eng
	}
	return c.engs[sh]
}

// bridge registers a link in construction order and, when its sender and
// receiver live on different shards, turns it into a shard boundary.
// Every link passes through here — bridged or not — so the identity a
// boundary link carries into frame ordering (netsim.Frame.LinkID) is the
// same at every shard count.
func (c *Cluster) bridge(l *netsim.Link, from, to int) *netsim.Link {
	id := c.linkSeq
	c.linkSeq++
	c.links = append(c.links, l)
	if c.shards == nil || from == to {
		return l
	}
	l.SetShardPort(c.outboxes[from], id, c.engs[to])
	c.shards.addBridge(l.Latency())
	return l
}

// advance moves the whole simulation to the phase boundary: the primary
// engine serially, the coordinated round loop sharded.
func (c *Cluster) advance(until sim.Time) {
	if c.shards == nil {
		c.eng.Run(until)
		return
	}
	c.shards.Advance(until)
}

// firedEvents sums executed events across every engine, plus every
// link's serialization completions: a link retires those without an
// engine event, but each stands for the dequeue event it once fired, so
// the count — and every stored Result — is unchanged by the folding.
// Cross-shard delivery replaces the sender-side delivery event with one
// injected event on the receiver, one for one, so the total matches the
// serial run's exactly.
func (c *Cluster) firedEvents() uint64 {
	var n uint64
	if c.shards == nil {
		n = c.eng.Fired()
	} else {
		for _, e := range c.engs {
			n += e.Fired()
		}
	}
	for _, l := range c.links {
		n += l.Completions()
	}
	return n
}

// ShardStats reports the run's effective partitioning and, after Run,
// its synchronization counters. Serial runs report Shards == 1 and
// zeros. Deliberately not part of Result: like -jobs, sharding is an
// execution strategy, and Results must stay deeply equal across shard
// counts.
func (c *Cluster) ShardStats() ShardStats {
	if c.shards == nil {
		return ShardStats{Shards: 1}
	}
	return c.shards.stats
}
