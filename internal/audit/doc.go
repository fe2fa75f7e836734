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
// the lane lock, and each hasher pass takes only records ticketed before
// it began, so a batch has no gaps: one goroutine's appends can never
// commit out of program order, whatever lanes it used, and Flush's
// watermark (tickets issued vs records committed) is exact. Append
// remains the synchronous path for records whose sequence number the
// caller needs immediately; SetStagingLanes grows the lane set (the
// sharded bus sizes it to its shard count). Lane buffers and the
// hasher's batch buffer are cleared and reused after each pass; one
// that a burst grew past 1024 entries is dropped once it is found empty.
//
// # Storage that never moves
//
// The retained chain and the graph's node table are stored in fixed
// chunks of 1024 elements (chunkSeq): appending never copies what was
// written before, and Log.Prune releases whole chunks and zeroes the
// pruned slots of the chunk it keeps. A Record is 280 bytes; Kind and
// Layer are single bytes, as they already were in the hash preimage and
// the binary codec, so chains and WAL segments written earlier verify.
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
