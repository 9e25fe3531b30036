package serving

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/bucketize"
	"repro/internal/embedding"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving/wire"
	"repro/internal/tensor"
)

// DenseShard is one DLRM variant's dense DNN microservice: it owns that
// variant's bottom/top MLP parameters and consults the epoch-versioned
// Router for the variant's current partition plan. On Predict it pins
// exactly one routing-table epoch of its own model, applies that epoch's
// preprocessing remap, bucketizes the sparse inputs against that epoch's
// boundaries, fans the gathers out concurrently to that epoch's shard
// clients, merges the pooled partial sums and finishes the forward pass
// (Sec. IV-A). Because the whole fan-out happens inside one snapshot, a
// concurrent plan swap can never mix shards of two plans — and because the
// shard serves exactly one model and rejects mismatched requests, it can
// never mix two variants either.
type DenseShard struct {
	cfg    model.Config
	router *Router
	model  string // canonical model name this shard serves

	dense *model.Model // parameters read-only; scratch comes from its pool

	// scratch recycles the per-request fan-out buffers (gather calls,
	// bucketized indices/offsets, merged pooled sums) across Predicts, so
	// the steady-state hot path allocates almost nothing besides the
	// reply itself.
	scratch sync.Pool

	// gatherRows switches Predict to the v2 rows-mode fan-out (dedup +
	// raw-row gathers, see predictRows); rowCache is its optional
	// frontend hot-row cache (nil = disabled). Both are set once at build
	// time, before the shard serves traffic.
	gatherRows bool
	rowCache   *rowCache

	Latency *metrics.LatencyRecorder
	QPS     *metrics.QPSMeter
}

// predictScratch is one Predict call's reusable working set. Every slice
// is grown on demand and retained; the gather goroutines only ever touch
// it between the fan-out start and wg.Wait, so recycling after Predict
// returns can never race an in-flight gather.
type predictScratch struct {
	calls   []gatherCall
	counts  []int    // per-shard lookup counts of the table being split
	starts  []int    // per-shard segment starts within idxBuf
	cursors []int    // per-shard fill cursors within idxBuf
	idxBuf  []int64  // backing for every shard's rebased indices
	offBuf  []int32  // backing for every shard's local offsets
	localID []int64  // per index of the table being split, its shard-local id
	shardNo []uint16 // per index of the table being split, its owning shard
	pooled  []float32

	// Rows-mode (predictRows) working set.
	uniqBuf []int64     // per-table sorted-unique remapped ids, concatenated
	needBuf []int64     // cache misses, rebased per shard segment
	missPos []int32     // absolute uniq position of each miss
	tabU    []int       // per-table uniq segment bounds within uniqBuf
	slotBuf []int32     // per input index, its absolute uniq slot
	rowView [][]float32 // per unique id, a view of its row (cache or reply)

	// Hot-window dedup scoreboard (see predictRows pass 1): genBuf marks
	// ids seen this table (stamped with genCtr, so no clearing between
	// tables), slotHot records each marked id's uniq slot, and spillBuf
	// collects the rare ids past the window as packed (row, position) keys.
	genBuf   []int64
	slotHot  []int32
	spillBuf []int64
	genCtr   int64
}

// growInts resizes an int scratch slice to length n.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// NewDenseShard wires a dense service over a routing layer, serving the
// default model — the single-variant constructor. denseModel needs only
// its MLPs (model.NewDenseOnly suffices); router serves the partition plan
// epochs (see NewRoutingTable for the plan layout).
func NewDenseShard(denseModel *model.Model, router *Router) (*DenseShard, error) {
	return NewModelDenseShard(DefaultModel, denseModel, router)
}

// NewModelDenseShard wires a dense service for one named DLRM variant over
// a shared multi-model routing layer. The variant must already be
// registered with the router.
func NewModelDenseShard(name string, denseModel *model.Model, router *Router) (*DenseShard, error) {
	name = canonicalModel(name)
	if router == nil || router.LoadModel(name) == nil {
		return nil, fmt.Errorf("serving: dense shard needs a router with a published routing table for model %q", name)
	}
	return &DenseShard{
		cfg:     denseModel.Config,
		router:  router,
		model:   name,
		dense:   denseModel,
		Latency: metrics.NewLatencyRecorder(0),
		QPS:     metrics.NewQPSMeter(10 * time.Second),
	}, nil
}

// Config returns the model geometry the shard serves (used by the batcher
// frontend to validate requests before they join a fused batch).
func (d *DenseShard) Config() model.Config { return d.cfg }

// gatherCall is one (table, shard) RPC of the fan-out. In rows mode miss
// records, per requested row, its absolute position in the uniq buffer so
// the reply rows scatter straight back into the row-view table.
type gatherCall struct {
	table, shard int
	req          GatherRequest
	reply        GatherReply
	miss         []int32
}

// Rows-mode dedup constants. Ids below rowsModeHotWindow dedup through a
// generation-stamped scoreboard — the id space is hotness-sorted, so at
// CDF skew nearly every index lands there and no sorting happens at all.
// Ids past the window spill to packed (row, position) int64 keys whose
// high bits hold the remapped row id and low 24 bits the index's position
// within its table batch; sorting that small spill yields both its
// sorted-unique rows and each position's uniq slot. The packing bounds a
// table batch to 2^24 indices and a table to 2^38 rows (keys stay
// positive); rowsModeFits falls back to the pooled v1 path for anything
// bigger.
const (
	rowsModeHotWindow = int64(8192)
	rowsModePosBits   = 24
	rowsModePosMask   = 1<<rowsModePosBits - 1
	rowsModeMaxRows   = int64(1) << (62 - rowsModePosBits)
)

// rowsModeFits reports whether the request fits the packed-key encoding.
func (d *DenseShard) rowsModeFits(req *PredictRequest) bool {
	if d.cfg.RowsPerTable >= rowsModeMaxRows {
		return false
	}
	for t := range req.Tables {
		if len(req.Tables[t].Indices) > rowsModePosMask {
			return false
		}
	}
	return true
}

// Predict services one query. When the pinned epoch carries a
// preprocessing remap the request is in original-ID space; otherwise it is
// already hotness-sorted.
func (d *DenseShard) Predict(ctx context.Context, req *PredictRequest, reply *PredictReply) error {
	start := time.Now()
	if err := req.Validate(d.cfg.NumTables); err != nil {
		return err
	}
	if req.DenseDim != d.cfg.DenseInputDim {
		return fmt.Errorf("serving: dense dim %d != model %d", req.DenseDim, d.cfg.DenseInputDim)
	}
	if got := canonicalModel(req.Model); got != d.model {
		return fmt.Errorf("serving: request for model %q reached dense shard serving %q", got, d.model)
	}
	if d.gatherRows && d.rowsModeFits(req) {
		return d.predictRows(ctx, req, reply, start)
	}
	bs := req.BatchSize

	// Pin one routing epoch of this shard's model for the whole request;
	// the epoch cannot be retired until this request releases it.
	rt, err := d.router.AcquireModel(d.model)
	if err != nil {
		return err
	}
	defer rt.release()

	sc, _ := d.scratch.Get().(*predictScratch)
	if sc == nil {
		sc = &predictScratch{}
	}
	defer d.scratch.Put(sc)

	// Remap + bucketize every table's batch across the epoch's shards in
	// one fused pass (Sec. IV-C): each original index is translated to
	// sorted space through the epoch's remap and rebased into its owning
	// shard's local ID space, with exact-size segments carved out of the
	// reusable scratch backing (no intermediate remapped request, no
	// append growth). bucketize.Split is the allocating reference
	// implementation of the same count-then-carve partition;
	// TestFusedBucketizeMatchesSplit pins this fused path against it
	// exactly, so a carve fix must land in both.
	nt := d.cfg.NumTables
	totalCalls, idxNeed := 0, 0
	for t := 0; t < nt; t++ {
		totalCalls += len(rt.Boundaries[t])
		idxNeed += len(req.Tables[t].Indices)
	}
	if cap(sc.calls) < totalCalls {
		sc.calls = make([]gatherCall, totalCalls)
	}
	calls := sc.calls[:totalCalls]
	if cap(sc.idxBuf) < idxNeed {
		sc.idxBuf = make([]int64, idxNeed)
	}
	if cap(sc.offBuf) < totalCalls*bs {
		sc.offBuf = make([]int32, totalCalls*bs)
	}
	ci, idxPos, offPos := 0, 0, 0
	for t := 0; t < nt; t++ {
		tb := &req.Tables[t]
		bnd := rt.Boundaries[t]
		ns := len(bnd)
		var rank []int64
		if rt.Pre != nil {
			rank = rt.Pre.RankOf[t]
		}
		sc.counts = growInts(sc.counts, ns)
		counts := sc.counts
		for s := range counts {
			counts[s] = 0
		}
		// Pass 1: remap and validate each index once, then record its
		// shard-local id and owning shard while counting each shard's
		// lookups, so pass 2 never repeats the cache-missing rank lookup
		// or the boundary search. The remap runs as its own loop: free of
		// the shard search's data-dependent branches, its rank[idx] misses
		// overlap instead of being flushed with each mispredict.
		if cap(sc.localID) < len(tb.Indices) {
			sc.localID = make([]int64, len(tb.Indices))
			sc.shardNo = make([]uint16, len(tb.Indices))
		}
		localID := sc.localID[:len(tb.Indices)]
		shardNo := sc.shardNo[:len(tb.Indices)]
		for p, idx := range tb.Indices {
			r := idx
			if rank != nil {
				if idx < 0 || idx >= int64(len(rank)) {
					return fmt.Errorf("serving: index %d outside table %d (%d rows)", idx, t, len(rank))
				}
				r = rank[idx]
			} else if idx < 0 || idx >= bnd[ns-1] {
				return fmt.Errorf("serving: index %d outside table %d (%d rows)", idx, t, bnd[ns-1])
			}
			localID[p] = r
		}
		for p, r := range localID {
			s := bucketize.ShardOf(r, bnd)
			counts[s]++
			if s > 0 {
				r -= bnd[s-1]
			}
			localID[p] = r
			shardNo[p] = uint16(s)
		}
		sc.starts = growInts(sc.starts, ns)
		sc.cursors = growInts(sc.cursors, ns)
		pos := idxPos
		for s := 0; s < ns; s++ {
			sc.starts[s], sc.cursors[s] = pos, pos
			pos += counts[s]
		}
		// Pass 2: per input, record every shard's local offset, then
		// scatter the input's shard-local ids into the shard segments.
		for i := 0; i < bs; i++ {
			for s := 0; s < ns; s++ {
				sc.offBuf[offPos+s*bs+i] = int32(sc.cursors[s] - sc.starts[s])
			}
			lo := int(tb.Offsets[i])
			hi := len(tb.Indices)
			if i+1 < bs {
				hi = int(tb.Offsets[i+1])
			}
			for p := lo; p < hi; p++ {
				s := shardNo[p]
				sc.idxBuf[sc.cursors[s]] = localID[p]
				sc.cursors[s]++
			}
		}
		for s := 0; s < ns; s++ {
			off := offPos + s*bs
			calls[ci] = gatherCall{
				table: t,
				shard: s,
				req: GatherRequest{
					Table:   t,
					Shard:   s,
					Indices: sc.idxBuf[sc.starts[s]:sc.cursors[s]:sc.cursors[s]],
					Offsets: sc.offBuf[off : off+bs : off+bs],
				},
			}
			ci++
		}
		offPos += ns * bs
		idxPos = pos
	}

	// Fan the gathers out concurrently — one RPC per (table, shard) — in
	// errgroup style: the first failure cancels the sibling gathers, and
	// the wait ensures no straggler lands after Predict returns (which is
	// also what makes recycling the scratch safe).
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for i := range calls {
		wg.Add(1)
		go func(c *gatherCall) {
			defer wg.Done()
			if err := rt.Clients[c.table][c.shard].Gather(gctx, &c.req, &c.reply); err != nil {
				fail(fmt.Errorf("serving: gather t%d s%d: %w", c.table, c.shard, err))
				return
			}
			if c.reply.BatchSize != bs || c.reply.Dim != d.cfg.EmbeddingDim {
				fail(fmt.Errorf("serving: gather t%d s%d returned %dx%d, want %dx%d",
					c.table, c.shard, c.reply.BatchSize, c.reply.Dim, bs, d.cfg.EmbeddingDim))
			}
		}(&calls[i])
	}
	wg.Wait()
	if firstErr != nil {
		// Recycle whatever reply buffers did land before the failure.
		for i := range calls {
			wire.PutFloat32(calls[i].reply.Pooled)
			calls[i].reply.Pooled = nil
		}
		return firstErr
	}

	// Merge per-table partial sums (pooling is additive) into one scratch
	// backing, returning every reply buffer to the shared wire pool. On
	// the binary transport the reply rows were decoded into that pool —
	// float32 either way, even when the wire encoding was int8-quantized —
	// so local and remote gathers recycle identically.
	dim := d.cfg.EmbeddingDim
	if cap(sc.pooled) < nt*bs*dim {
		sc.pooled = make([]float32, nt*bs*dim)
	}
	pooled := sc.pooled[:nt*bs*dim]
	for i := range pooled {
		pooled[i] = 0
	}
	for i := range calls {
		c := &calls[i]
		dst := pooled[c.table*bs*dim : (c.table+1)*bs*dim]
		for j, v := range c.reply.Pooled {
			dst[j] += v
		}
		wire.PutFloat32(c.reply.Pooled)
		c.reply.Pooled = nil
	}

	if err := d.forwardDense(req, pooled, reply); err != nil {
		return err
	}
	rt.Served.Inc(1)
	d.Latency.Observe(time.Since(start))
	d.QPS.Mark()
	return nil
}

// forwardDense runs the batched dense forward over the merged per-table
// pooled sums (table-major, the layout the merge writes) and fills
// reply.Probs. Scratch is acquired from the model's pool once per request,
// so overlapping Predict calls run concurrently without a lock.
func (d *DenseShard) forwardDense(req *PredictRequest, pooled []float32, reply *PredictReply) error {
	bs := req.BatchSize
	scratch := d.dense.AcquireScratch()
	defer d.dense.ReleaseScratch(scratch)
	dense := tensor.Matrix{Rows: bs, Cols: req.DenseDim, Data: req.Dense}
	pm := tensor.Matrix{Rows: d.cfg.NumTables * bs, Cols: d.cfg.EmbeddingDim, Data: pooled}
	probs := make([]float32, bs)
	if err := d.dense.ForwardPooledBatch(scratch, &dense, &pm, probs); err != nil {
		return fmt.Errorf("serving: dense forward: %w", err)
	}
	reply.Probs = probs
	return nil
}

// predictRows is gather path v2: instead of bucketizing pooled-per-input
// gathers, it dedups each table's remapped row ids (in-batch dedup — a
// flash-crowd batch hitting the same hot rows 50× fetches them once),
// serves unique rows from the frontend hot-row cache where it can, fans
// out rows-mode gathers only for the misses — skipping shards with no
// missing rows entirely — and re-expands multiplicities at merge time
// through the slot map pass 1 built. The merge accumulates rows per
// input in original index order, exactly the monolith's GatherPool
// order, so equivalence is as tight as v1's.
func (d *DenseShard) predictRows(ctx context.Context, req *PredictRequest, reply *PredictReply, start time.Time) error {
	bs := req.BatchSize

	rt, err := d.router.AcquireModel(d.model)
	if err != nil {
		return err
	}
	defer rt.release()
	epoch := rt.Epoch

	sc, _ := d.scratch.Get().(*predictScratch)
	if sc == nil {
		sc = &predictScratch{}
	}
	defer d.scratch.Put(sc)

	nt := d.cfg.NumTables
	dim := d.cfg.EmbeddingDim
	totalCalls, idxNeed := 0, 0
	for t := 0; t < nt; t++ {
		totalCalls += len(rt.Boundaries[t])
		idxNeed += len(req.Tables[t].Indices)
	}

	// Pass 1 per table: remap + validate each index, then dedup through
	// the hot-window scoreboard. Hot ids (below rowsModeHotWindow — which
	// is almost all of them, the id space is hotness-sorted) are marked in
	// a generation-stamped direct map, so deduping them costs one array
	// write per index and no sort. The cold tail spills to packed
	// (row, position) keys and sorts small. Unique ids emit in ascending
	// order (window scan first, sorted spill after — spill ids are all
	// larger), which keeps each shard's miss slice contiguous in pass 2;
	// slotBuf records every index position's absolute uniq slot for the
	// merge. Segments concatenate in uniqBuf with bounds in tabU.
	if cap(sc.uniqBuf) < idxNeed {
		sc.uniqBuf = make([]int64, idxNeed)
	}
	if cap(sc.slotBuf) < idxNeed {
		sc.slotBuf = make([]int32, idxNeed)
	}
	if len(sc.genBuf) < int(rowsModeHotWindow) {
		sc.genBuf = make([]int64, rowsModeHotWindow)
		sc.slotHot = make([]int32, rowsModeHotWindow)
	}
	slotBuf := sc.slotBuf[:idxNeed]
	sc.tabU = growInts(sc.tabU, nt+1)
	tabU := sc.tabU
	pos, ibase := 0, 0
	for t := 0; t < nt; t++ {
		tabU[t] = pos
		tb := &req.Tables[t]
		bnd := rt.Boundaries[t]
		ns := len(bnd)
		var rank []int64
		if rt.Pre != nil {
			rank = rt.Pre.RankOf[t]
		}
		sc.genCtr++
		g := sc.genCtr
		spill := sc.spillBuf[:0]
		for p, idx := range tb.Indices {
			r := idx
			if rank != nil {
				if idx < 0 || idx >= int64(len(rank)) {
					return fmt.Errorf("serving: index %d outside table %d (%d rows)", idx, t, len(rank))
				}
				r = rank[idx]
			} else if idx < 0 || idx >= bnd[ns-1] {
				return fmt.Errorf("serving: index %d outside table %d (%d rows)", idx, t, bnd[ns-1])
			}
			if r < rowsModeHotWindow {
				sc.genBuf[r] = g
			} else {
				spill = append(spill, r<<rowsModePosBits|int64(p))
			}
		}
		sc.spillBuf = spill // keep any growth for the next table
		// Emit hot uniques by scanning the window in id order.
		seg := sc.uniqBuf[pos:pos]
		w := rowsModeHotWindow
		if bnd[ns-1] < w {
			w = bnd[ns-1]
		}
		for r := int64(0); r < w; r++ {
			if sc.genBuf[r] == g {
				sc.slotHot[r] = int32(pos + len(seg))
				seg = append(seg, r)
			}
		}
		// Spilled uniques follow; their packed low bits resolve slots now.
		slices.Sort(spill)
		prev := int64(-1)
		for _, key := range spill {
			r := key >> rowsModePosBits
			if r != prev {
				seg = append(seg, r)
				prev = r
			}
			slotBuf[ibase+int(key&rowsModePosMask)] = int32(pos + len(seg) - 1)
		}
		// Hot positions resolve through the scoreboard (indices were
		// validated above, so the bare remap is safe).
		for p, idx := range tb.Indices {
			r := idx
			if rank != nil {
				r = rank[idx]
			}
			if r < rowsModeHotWindow {
				slotBuf[ibase+p] = sc.slotHot[r]
			}
		}
		pos += len(seg)
		ibase += len(tb.Indices)
	}
	tabU[nt] = pos
	totalUniq := pos

	// Pass 2 per table: serve unique rows from the hot-row cache — each
	// hit is a zero-copy view of the cached vector (immutable once
	// inserted, see rowCache.get) — and collect the misses (still sorted,
	// so each shard's slice is contiguous) into rebased per-shard gather
	// calls, skipping shards with nothing missing — at a skewed steady
	// state most shards drop out of the fan-out here.
	if cap(sc.rowView) < totalUniq {
		sc.rowView = make([][]float32, totalUniq)
	}
	rowView := sc.rowView[:totalUniq]
	if cap(sc.needBuf) < totalUniq {
		sc.needBuf = make([]int64, totalUniq)
	}
	if cap(sc.missPos) < totalUniq {
		sc.missPos = make([]int32, totalUniq)
	}
	if cap(sc.calls) < totalCalls {
		sc.calls = make([]gatherCall, totalCalls)
	}
	calls := sc.calls[:0]
	needAll := sc.needBuf[:0]
	missAll := sc.missPos[:0]
	var hits, misses int64
	pref := d.rowCache.prefixView(epoch)
	for t := 0; t < nt; t++ {
		bnd := rt.Boundaries[t]
		segStart := len(needAll)
		// Hoist the seeded plane's per-table arena: nearly every unique id
		// is a prefix hit, and this turns each into two compares and a
		// subslice with no call.
		var parena []float32
		var pcount, pdim int64
		if pref != nil && t < len(pref.tabs) {
			parena, pcount, pdim = pref.tabs[t], pref.counts[t], pref.dim
		}
		for u := tabU[t]; u < tabU[t+1]; u++ {
			r := sc.uniqBuf[u]
			if r < pcount {
				rowView[u] = parena[r*pdim : (r+1)*pdim]
				hits++
				continue
			}
			if vec := d.rowCache.get(epoch, t, r); vec != nil {
				rowView[u] = vec
				hits++
				continue
			}
			rowView[u] = nil // scatter fills it; a nil view cannot leak a stale row
			misses++
			needAll = append(needAll, r)
			missAll = append(missAll, int32(u))
		}
		for a := segStart; a < len(needAll); {
			s := bucketize.ShardOf(needAll[a], bnd)
			base := int64(0)
			if s > 0 {
				base = bnd[s-1]
			}
			b := a
			for b < len(needAll) && needAll[b] < bnd[s] {
				b++
			}
			for k := a; k < b; k++ {
				needAll[k] -= base
			}
			calls = append(calls, gatherCall{
				table: t,
				shard: s,
				req:   GatherRequest{Table: t, Shard: s, Indices: needAll[a:b:b]},
				miss:  missAll[a:b:b],
			})
			a = b
		}
	}
	d.rowCache.note(hits, misses)

	// Fan out the rows-mode gathers exactly like v1 (first failure cancels
	// siblings; the wait makes scratch recycling safe).
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for i := range calls {
		wg.Add(1)
		go func(c *gatherCall) {
			defer wg.Done()
			if err := rt.Clients[c.table][c.shard].Gather(gctx, &c.req, &c.reply); err != nil {
				fail(fmt.Errorf("serving: gather t%d s%d: %w", c.table, c.shard, err))
				return
			}
			if c.reply.BatchSize != len(c.req.Indices) || c.reply.Dim != dim {
				fail(fmt.Errorf("serving: gather t%d s%d returned %dx%d, want %dx%d",
					c.table, c.shard, c.reply.BatchSize, c.reply.Dim, len(c.req.Indices), dim))
			}
		}(&calls[i])
	}
	wg.Wait()
	if firstErr != nil {
		for i := range calls {
			wire.PutFloat32(calls[i].reply.Pooled)
			calls[i].reply.Pooled = nil
		}
		return firstErr
	}

	// Scatter: point each missed uniq slot's view at its reply row and
	// fill the cache (fills for a retiring epoch are dropped inside fill).
	// Reply buffers stay alive until after the merge reads them.
	for i := range calls {
		c := &calls[i]
		for k, u := range c.miss {
			row := c.reply.Pooled[k*dim : (k+1)*dim]
			rowView[u] = row
			d.rowCache.fill(epoch, c.table, sc.uniqBuf[u], row)
		}
	}

	// Merge: re-expand multiplicities. For each input, every index
	// resolves to its uniq slot through the argsort's slot map and its row
	// accumulates into the input's pooled sum — float32 adds in original
	// index order, matching the monolith bit for bit.
	if cap(sc.pooled) < nt*bs*dim {
		sc.pooled = make([]float32, nt*bs*dim)
	}
	pooled := sc.pooled[:nt*bs*dim]
	ibase = 0
	for t := 0; t < nt; t++ {
		tb := &req.Tables[t]
		for i := 0; i < bs; i++ {
			lo := int(tb.Offsets[i])
			hi := len(tb.Indices)
			if i+1 < bs {
				hi = int(tb.Offsets[i+1])
			}
			dst := pooled[(t*bs+i)*dim : (t*bs+i+1)*dim]
			if lo == hi {
				// Scratch is recycled, so empty bags must zero explicitly.
				for k := range dst {
					dst[k] = 0
				}
				continue
			}
			// The bag's first row copies instead of zero-then-add (0+x == x
			// in float32 up to the sign of zero, which no later op can
			// distinguish), killing the 32KB memclr a recycled scratch
			// would otherwise need per request.
			copy(dst, rowView[slotBuf[ibase+lo]])
			// The rest accumulate through the rows-mode merge kernel, four
			// row streams at a time; its add order is the one-row-at-a-time
			// order, so the grouping changes no bit.
			slots := slotBuf[ibase+lo+1 : ibase+hi]
			for ; len(slots) >= 4; slots = slots[4:] {
				embedding.AddRows4(dst, rowView[slots[0]], rowView[slots[1]], rowView[slots[2]], rowView[slots[3]])
			}
			for _, u := range slots {
				embedding.AddRow(dst, rowView[u])
			}
		}
		ibase += len(tb.Indices)
	}

	// Replies are merged; recycle their buffers and drop the views into
	// them (and into cache entries) so the pooled scratch retains nothing.
	for i := range calls {
		wire.PutFloat32(calls[i].reply.Pooled)
		calls[i].reply.Pooled = nil
	}
	for u := range rowView {
		rowView[u] = nil
	}

	if err := d.forwardDense(req, pooled, reply); err != nil {
		return err
	}
	rt.Served.Inc(1)
	d.Latency.Observe(time.Since(start))
	d.QPS.Mark()
	return nil
}

var _ PredictClient = (*DenseShard)(nil)

// Monolith is the model-wise baseline service: the full model in one
// process, queried with original-ID batches. Forward passes draw scratch
// from the model's pool, so concurrent Predict calls are safe.
type Monolith struct {
	model *model.Model
	// batches recycles the per-table Batch views Predict hands the model,
	// so a Predict allocates nothing but its reply.
	batches sync.Pool

	Latency *metrics.LatencyRecorder
	QPS     *metrics.QPSMeter
}

// monoBatches is one Predict's per-table Batch views over the request.
type monoBatches struct {
	views []embedding.Batch
	ptrs  []*embedding.Batch
}

// NewMonolith wraps a fully instantiated model (tables included).
func NewMonolith(m *model.Model) *Monolith {
	return &Monolith{
		model:   m,
		Latency: metrics.NewLatencyRecorder(0),
		QPS:     metrics.NewQPSMeter(10 * time.Second),
	}
}

// Predict services one query with indices in original table-ID space.
func (m *Monolith) Predict(ctx context.Context, req *PredictRequest, reply *PredictReply) error {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return err
	}
	cfg := m.model.Config
	if err := req.Validate(cfg.NumTables); err != nil {
		return err
	}
	if req.DenseDim != cfg.DenseInputDim {
		return fmt.Errorf("serving: dense dim %d != model %d", req.DenseDim, cfg.DenseInputDim)
	}
	dense := tensor.Matrix{Rows: req.BatchSize, Cols: req.DenseDim, Data: req.Dense}
	b, _ := m.batches.Get().(*monoBatches)
	if b == nil {
		b = &monoBatches{views: make([]embedding.Batch, cfg.NumTables), ptrs: make([]*embedding.Batch, cfg.NumTables)}
		for t := range b.ptrs {
			b.ptrs[t] = &b.views[t]
		}
	}
	for t := range b.views {
		b.views[t] = embedding.Batch{Indices: req.Tables[t].Indices, Offsets: req.Tables[t].Offsets}
	}
	probs, err := m.model.ForwardBatch(&dense, b.ptrs)
	for t := range b.views {
		b.views[t] = embedding.Batch{} // retain no request past Predict
	}
	m.batches.Put(b)
	if err != nil {
		return err
	}
	reply.Probs = probs
	m.Latency.Observe(time.Since(start))
	m.QPS.Mark()
	return nil
}

var _ PredictClient = (*Monolith)(nil)
