// Package audit implements the paper's audit plane (Section 8.3): a
// tamper-evident, hash-chained log of every enforcement decision, and the
// provenance graph derived from it — "the logs generated during IFC
// enforcement are a natural source of provenance information" — following
// the Open Provenance Model conventions of Fig. 11.
//
// # Chain-ordered ingest from parallel staging lanes
//
// The Log's hash chain needs a total order — every record names its
// predecessor's hash — but the hot producers (the sharded bus's
// dispatchers, one per shard) must not serialize on a single pending
// list. AppendAsyncLane stages records into per-lane buffers: a lane
// append takes a global ticket and the lane's lock only, so dispatchers
// on different lanes never contend. A single on-demand hasher goroutine
// merges staged records across lanes by ticket order and commits them
// under the chain lock — chain-head assignment stays serialized, which
// is what makes the chain a total order — and delivers each committed
// batch to the registered sinks in sequence. Tickets are issued under
// the lane lock, so one goroutine's appends can never commit out of
// program order, and Flush's watermark (tickets issued vs records
// committed) is exact. Append remains the synchronous path for records
// whose sequence number the caller needs immediately; SetStagingLanes
// grows the lane set (the sharded bus sizes it to its shard count).
//
// # Incremental provenance
//
// Graphs are built for querying: Ancestry and Descendants memoize each
// node's reachability set, stamped with a graph epoch that advances on
// every edge added or removed (edges form a set; re-adding one is a
// no-op). The first query after a topology change walks the
// history; repeats are served from the memo in time proportional to the
// answer, not to the history depth. Graph.Append ingests new audit
// records into an existing graph — the build-once/append-many path — so a
// growing log never forces a full rebuild: append the new batch, let the
// epoch retire the memo, and pay one walk per queried node per batch
// rather than per query.
package audit
