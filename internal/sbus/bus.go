package sbus

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lciot/internal/ac"
	"lciot/internal/audit"
	"lciot/internal/ctxmodel"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/telemetry"
	"lciot/internal/transport"
)

// A channelKey identifies a channel by its fully-qualified endpoints.
type channelKey struct {
	src, dst string // "component.endpoint" (local) or "bus:component.endpoint"
}

// A channel is an established flow path from a source endpoint to a sink.
// The endpoints are resolved once, at establishment: components are never
// deregistered and endpoint specs are immutable after registration, so the
// cached pointers stay valid for the channel's lifetime, and every dynamic
// property (context, clearance, quarantine) is re-read per delivery.
type channel struct {
	key channelKey
	// srcComp is the source component (resolved at establishment).
	srcComp *Component
	// remoteBus/remoteDst are set when the sink lives on a linked bus, along
	// with srcEP and agent, which the link layer needs to replay the connect
	// handshake when a broken link resumes.
	remoteBus string
	remoteDst string
	srcEP     EndpointSpec
	agent     ifc.PrincipalID
	// wireSrc is the source's address as the peer knows it,
	// "bus:component.endpoint": the Src of the channel's connect and
	// message frames.
	wireSrc string
	// dstComp/dstEP are set for local sinks.
	dstComp *Component
	dstEP   EndpointSpec
	// srcShard/dstShard cache the home shards of the two endpoints (equal
	// for same-shard and remote channels), so publish decides inline
	// delivery versus ring handoff without hashing.
	srcShard int
	dstShard int
	// verified caches the generations at which this channel's flow legality
	// was last confirmed; see chanStamp. Written by Connect and reevaluate,
	// read by reevaluate to skip checks no generation has invalidated.
	verified atomic.Pointer[chanStamp]
}

// A chanStamp records the invalidation generations a channel-legality check
// was derived from: the two endpoint entities' context generations and the
// process-wide flow-cache generation (which advances on privilege and gate
// changes). While all three are unchanged, the channel's last verdict still
// describes the live configuration and re-evaluation may skip it — the same
// generation-stamping discipline as the ifc flow cache.
type chanStamp struct {
	srcGen, dstGen, flowGen uint64
}

// routing is one shard's immutable routing state. Mutations (component
// registration, channel establishment/teardown) build a new snapshot under
// the shard's write lock and publish it atomically, so the message hot
// path (publish → deliverLocal) reads routing state without taking any
// lock and never contends with reconfiguration — and reconfiguration of
// one shard never contends with any other shard.
type routing struct {
	// components maps the names that hash to this shard to their components.
	components map[string]*Component
	// channels holds the channels this shard owns: those whose source
	// component is homed here.
	channels map[channelKey]*channel
	// bySrc indexes owned channels by their source endpoint
	// ("component.endpoint"), making publish O(fan-out) instead of
	// O(total channels).
	bySrc map[string][]*channel
	// byComp indexes channels by this shard's *components* (source, and
	// local sink when it differs), so a context change re-evaluates only the
	// changed component's channels instead of every channel on the bus. A
	// cross-shard channel therefore appears in its sink's home shard under
	// byComp even though the source's shard owns it.
	byComp map[string][]*channel
}

// clone copies the snapshot's maps (the referenced components and channels
// are shared — they are immutable or internally synchronised). Slice
// values are shared too and copied on first write (see addOwned and
// friends).
func (r *routing) clone() *routing {
	next := &routing{
		components: make(map[string]*Component, len(r.components)+1),
		channels:   make(map[channelKey]*channel, len(r.channels)+1),
		bySrc:      make(map[string][]*channel, len(r.bySrc)+1),
		byComp:     make(map[string][]*channel, len(r.byComp)+1),
	}
	for k, v := range r.components {
		next.components[k] = v
	}
	for k, v := range r.channels {
		next.channels[k] = v
	}
	for k, v := range r.bySrc {
		next.bySrc[k] = v
	}
	for k, v := range r.byComp {
		next.byComp[k] = v
	}
	return next
}

// addOwned inserts ch into the shard's channel table and source index. The
// bySrc slice is copy-on-write: readers may hold the old slice. The caller
// must have removed any predecessor with the same key first.
func (r *routing) addOwned(ch *channel) {
	r.channels[ch.key] = ch
	old := r.bySrc[ch.key.src]
	next := make([]*channel, len(old), len(old)+1)
	copy(next, old)
	r.bySrc[ch.key.src] = append(next, ch)
}

// removeOwned deletes the channel with the given key from the channel
// table and source index, returning it (nil if absent).
func (r *routing) removeOwned(key channelKey) *channel {
	ch, ok := r.channels[key]
	if !ok {
		return nil
	}
	delete(r.channels, key)
	old := r.bySrc[key.src]
	next := make([]*channel, 0, len(old))
	for _, c := range old {
		if c != ch {
			next = append(next, c)
		}
	}
	if len(next) == 0 {
		delete(r.bySrc, key.src)
	} else {
		r.bySrc[key.src] = next
	}
	return ch
}

// addByComp appends ch to the named component's re-evaluation index entry
// (copy-on-write).
func (r *routing) addByComp(name string, ch *channel) {
	old := r.byComp[name]
	next := make([]*channel, len(old), len(old)+1)
	copy(next, old)
	r.byComp[name] = append(next, ch)
}

// removeByComp deletes ch from the named component's re-evaluation entry.
func (r *routing) removeByComp(name string, ch *channel) {
	old := r.byComp[name]
	next := make([]*channel, 0, len(old))
	for _, c := range old {
		if c != ch {
			next = append(next, c)
		}
	}
	if len(next) == 0 {
		delete(r.byComp, name)
	} else {
		r.byComp[name] = next
	}
}

// compNames lists the distinct local component names a channel touches.
func (ch *channel) compNames() []string {
	src := ch.srcComp.Name()
	if ch.dstComp != nil && ch.dstComp.Name() != src {
		return []string{src, ch.dstComp.Name()}
	}
	return []string{src}
}

// A Bus is one messaging substrate instance: the per-machine process that
// mediates all component interactions (Fig. 9). It owns the component
// table, the channel table, the audit log, and the links to other buses.
// The tables are partitioned across shards by component-name hash; see
// the package documentation for the sharding model.
type Bus struct {
	name  string
	acl   *ac.ACL
	store *ctxmodel.Store
	log   *audit.Log
	gates ifc.GateRegistry

	// shards partition routing state and dispatch by component hash.
	// len(shards) >= 1 and is fixed at construction.
	shards []*shard

	// quit, closed by Close, stops the shard dispatchers; closed is the
	// flag publishers consult (under the shard's enqMu read lock) before
	// attempting a ring handoff, so no message is enqueued after the
	// dispatchers' final drain.
	quit      chan struct{}
	closed    atomic.Bool
	closeOnce sync.Once

	// links maps peer bus names to live links. Links are bus-global (a
	// link serves channels from every shard), so they live outside the
	// shard snapshots: linkMu serialises mutations, the pointer is read
	// lock-free.
	linkMu sync.Mutex
	links  atomic.Pointer[map[string]*link]
	// linkLoops counts the running writer and supervisor loops of every
	// link started on this bus, Serve's handshakes and replayEgress's
	// connect-reply waiters; Close waits for it to reach zero.
	linkLoops sync.WaitGroup
	// handshakes holds the connections of Serve's in-flight handshakes,
	// which Close closes (guarded by linkMu).
	handshakes map[transport.Conn]struct{}

	// admission, when non-nil, is consulted with the advertised security
	// context of every cross-bus ingress (connect and message): federated
	// peers may present tags this domain has never seen, and the admission
	// policy decides whether they are meaningful here (Challenge 1 —
	// typically by resolving each tag through the global namespace).
	admission atomic.Pointer[func(ifc.SecurityContext) error]

	// linkCfg is the tuning applied to links established by this bus; nil
	// means the defaults (see LinkConfig.withDefaults).
	linkCfg atomic.Pointer[LinkConfig]

	// jurisdiction is the set of jurisdictions this bus (machine) resides
	// in, declared to peers in the federation hello so their link egress
	// can enforce residency obligations before data leaves the region.
	// Empty means undeclared — residency-constrained data will then never
	// be sent to (or accepted by) this bus.
	jurisdiction atomic.Pointer[ifc.Label]

	// pubHist times publish calls end to end (zero cost while telemetry
	// is disabled: Start returns the zero time after one atomic load).
	pubHist *telemetry.Histogram
}

// NewBus builds a single-shard bus. The ACL governs the control plane (who
// may reconfigure what); the context store supplies snapshots for
// contextual AC conditions; the audit log receives every enforcement
// decision. On a single-shard bus every delivery is executed inline on the
// publisher's goroutine, exactly as before sharding existed.
func NewBus(name string, acl *ac.ACL, store *ctxmodel.Store, log *audit.Log) *Bus {
	return NewShardedBus(name, 1, acl, store, log)
}

// NewShardedBus builds a bus whose routing state and dispatch are
// partitioned into the given number of shards (clamped to [1, 1024]).
// Components are assigned to shards by name hash; same-shard deliveries
// run inline on the publisher's goroutine, cross-shard deliveries hand
// off to the destination shard's dispatcher. Call Close to stop the
// dispatchers when the bus is discarded.
func NewShardedBus(name string, shards int, acl *ac.ACL, store *ctxmodel.Store, log *audit.Log) *Bus {
	if acl == nil {
		acl = &ac.ACL{}
	}
	if store == nil {
		store = ctxmodel.NewStore(nil)
	}
	if log == nil {
		log = audit.NewLog(nil)
	}
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	// One audit staging lane per shard: each dispatcher appends hot-path
	// records into its own lane buffer, so audit ingest never serialises
	// parallel deliveries (chain-order is restored at the merge; see
	// audit.Log.AppendAsyncLane).
	log.SetStagingLanes(shards)
	b := &Bus{
		name:  name,
		acl:   acl,
		store: store,
		log:   log,
		quit:  make(chan struct{}),
	}
	empty := map[string]*link{}
	b.links.Store(&empty)
	b.shards = make([]*shard, shards)
	for i := range b.shards {
		sh := &shard{idx: i, ring: make(chan handoff, handoffRingSize)}
		sh.routing.Store(&routing{
			components: map[string]*Component{},
			channels:   map[channelKey]*channel{},
			bySrc:      map[string][]*channel{},
			byComp:     map[string][]*channel{},
		})
		b.shards[i] = sh
	}
	if shards > 1 {
		for _, sh := range b.shards {
			go sh.dispatch(b)
		}
	}
	registerBusMetrics(b)
	return b
}

// Name returns the bus name (used in cross-bus addresses).
func (b *Bus) Name() string { return b.name }

// SetJurisdiction declares the jurisdictions this bus resides in. The
// declaration travels in the federation hello, where
// peer buses use it to gate egress of residency-constrained data; links
// established before the call keep the jurisdiction they greeted with
// until their next reconnect.
func (b *Bus) SetJurisdiction(l ifc.Label) { b.jurisdiction.Store(&l) }

// Jurisdiction returns the declared jurisdiction set (empty when
// undeclared).
func (b *Bus) Jurisdiction() ifc.Label {
	if l := b.jurisdiction.Load(); l != nil {
		return *l
	}
	return ifc.EmptyLabel
}

// SetAdmissionPolicy installs the cross-bus ingress filter (see the
// admission field). A nil policy admits any well-formed context.
func (b *Bus) SetAdmissionPolicy(fn func(ifc.SecurityContext) error) {
	if fn == nil {
		b.admission.Store(nil)
		return
	}
	b.admission.Store(&fn)
}

// admit applies the admission policy to an advertised foreign context.
func (b *Bus) admit(ctx ifc.SecurityContext) error {
	fn := b.admission.Load()
	if fn == nil {
		return nil
	}
	return (*fn)(ctx)
}

// Log exposes the bus's audit log.
func (b *Bus) Log() *audit.Log { return b.log }

// Store exposes the bus's context store.
func (b *Bus) Store() *ctxmodel.Store { return b.store }

// ACL exposes the bus's access-control list.
func (b *Bus) ACL() *ac.ACL { return b.acl }

// Gates exposes the bus's gate registry (declassifiers/endorsers installed
// in this domain).
func (b *Bus) Gates() *ifc.GateRegistry { return &b.gates }

// Register attaches a component to the bus, homing it on the shard its
// name hashes to.
func (b *Bus) Register(name string, principal ifc.PrincipalID, ctx ifc.SecurityContext,
	handler Handler, endpoints ...EndpointSpec) (*Component, error) {
	if name == "" || strings.ContainsAny(name, ".:") {
		return nil, fmt.Errorf("sbus: invalid component name %q", name)
	}
	idx := b.shardIdx(name)
	c := &Component{
		name:      name,
		bus:       b,
		shard:     idx,
		entity:    ifc.NewEntity(ifc.EntityID(b.name+":"+name), ctx),
		principal: principal,
		handler:   handler,
		endpoints: make(map[string]EndpointSpec, len(endpoints)),
	}
	for _, ep := range endpoints {
		if ep.Name == "" || ep.Schema == nil {
			return nil, fmt.Errorf("sbus: component %q: endpoint needs name and schema", name)
		}
		if _, dup := c.endpoints[ep.Name]; dup {
			return nil, fmt.Errorf("sbus: component %q: duplicate endpoint %q", name, ep.Name)
		}
		c.endpoints[ep.Name] = ep
	}
	var dup bool
	b.mutate1(idx, func(r *routing) bool {
		if _, dup = r.components[name]; dup {
			return false
		}
		r.components[name] = c
		return true
	})
	if dup {
		return nil, fmt.Errorf("%w: %q", ErrDupComponent, name)
	}
	return c, nil
}

// Component looks a component up by name. Names map to exactly one shard,
// so the lookup reads a single snapshot, lock-free.
func (b *Bus) Component(name string) (*Component, error) {
	c, ok := b.shardFor(name).routing.Load().components[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoComponent, name)
	}
	return c, nil
}

// Components lists component names across all shards, sorted.
func (b *Bus) Components() []string {
	var out []string
	for _, sh := range b.shards {
		for n := range sh.routing.Load().components {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// HotComponents returns the k components with the most lifetime deliveries,
// hottest first (ties broken by name for determinism), each tagged with its
// home shard. The scan is lock-free — it reads the routing snapshots and
// each component's delivery counter — so operators can poll it to pinpoint
// which component a skewed lane's load concentrates on.
func (b *Bus) HotComponents(k int) []telemetry.HotComponent {
	if k <= 0 {
		return nil
	}
	var all []telemetry.HotComponent
	for _, sh := range b.shards {
		for name, c := range sh.routing.Load().components {
			if n := c.delivered.Load(); n > 0 {
				all = append(all, telemetry.HotComponent{Name: name, Lane: sh.idx, Deliveries: n})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Deliveries != all[j].Deliveries {
			return all[i].Deliveries > all[j].Deliveries
		}
		return all[i].Name < all[j].Name
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// splitEndpointAddr parses "component.endpoint".
func splitEndpointAddr(addr string) (comp, ep string, err error) {
	i := strings.LastIndexByte(addr, '.')
	if i <= 0 || i == len(addr)-1 {
		return "", "", fmt.Errorf("sbus: address %q is not component.endpoint", addr)
	}
	return addr[:i], addr[i+1:], nil
}

// splitRemoteAddr parses "bus:component.endpoint"; an empty bus means local.
func splitRemoteAddr(addr string) (bus, rest string) {
	if i := strings.IndexByte(addr, ':'); i >= 0 {
		return addr[:i], addr[i+1:]
	}
	return "", addr
}

// resolveLocal returns the component and endpoint spec for a local address,
// checking the expected direction.
func (b *Bus) resolveLocal(addr string, wantDir Direction) (*Component, EndpointSpec, error) {
	compName, epName, err := splitEndpointAddr(addr)
	if err != nil {
		return nil, EndpointSpec{}, err
	}
	c, ok := b.shardFor(compName).routing.Load().components[compName]
	if !ok {
		return nil, EndpointSpec{}, fmt.Errorf("%w: %q", ErrNoComponent, compName)
	}
	ep, ok := c.Endpoint(epName)
	if !ok {
		return nil, EndpointSpec{}, fmt.Errorf("%w: %q on %q", ErrNoEndpoint, epName, compName)
	}
	if ep.Dir != wantDir {
		return nil, EndpointSpec{}, fmt.Errorf("%w: %q is %s, want %s", ErrDirection, addr, ep.Dir, wantDir)
	}
	return c, ep, nil
}

// Connect establishes a channel from a local source endpoint to a sink,
// which may be local ("comp.ep") or remote ("bus:comp.ep"), on behalf of
// principal "by". Enforcement at establishment (Section 8.2.2):
//
//  1. Access control: "by" must hold connect rights over the channel
//     resource at message-type granularity.
//  2. Schema compatibility between the endpoints.
//  3. IFC: the source component's context must flow to the sink's.
//
// Both success and denial are audited.
func (b *Bus) Connect(by ifc.PrincipalID, src, dst string) error {
	srcComp, srcEP, err := b.resolveLocal(src, Source)
	if err != nil {
		return err
	}
	resource := "channel/" + srcEP.Schema.Name + "/" + src + "/" + dst
	if err := b.acl.Authorize(by, "connect", resource, b.store.Snapshot()); err != nil {
		b.auditDenied(srcComp.entity.ID(), ifc.EntityID(dst), srcComp.Context(),
			ifc.SecurityContext{}, by, "", "connect denied by AC: "+err.Error())
		return err
	}
	if srcComp.Quarantined() {
		return fmt.Errorf("%w: %q", ErrQuarantined, srcComp.Name())
	}

	remoteBus, rest := splitRemoteAddr(dst)
	if remoteBus != "" && remoteBus != b.name {
		return b.connectRemote(by, srcComp, srcEP, src, remoteBus, rest)
	}

	ch, err := b.buildLocalChannel(by, srcComp, srcEP, src, rest)
	if err != nil {
		return err
	}
	b.installChannel(ch)

	b.log.Append(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Src: srcComp.entity.ID(), Dst: ch.dstComp.entity.ID(),
		SrcCtx: srcComp.Context(), DstCtx: ch.dstComp.Context(),
		Agent: by, Note: "channel established",
	})
	return nil
}

// buildLocalChannel resolves and polices one local channel (schema
// compatibility, quarantine, IFC) and returns it stamped and ready to
// install. Shared by Connect and ConnectMany.
func (b *Bus) buildLocalChannel(by ifc.PrincipalID, srcComp *Component, srcEP EndpointSpec,
	src, rest string) (*channel, error) {
	dstComp, dstEP, err := b.resolveLocal(rest, Sink)
	if err != nil {
		return nil, err
	}
	if dstComp.Quarantined() {
		return nil, fmt.Errorf("%w: %q", ErrQuarantined, dstComp.Name())
	}
	if srcEP.Schema.Name != dstEP.Schema.Name {
		return nil, fmt.Errorf("%w: %q emits %q, %q accepts %q",
			ErrSchema, src, srcEP.Schema.Name, rest, dstEP.Schema.Name)
	}
	// Read the generations before the contexts they stamp: a concurrent
	// SetContext can then only make the stamp stale (forcing a re-check),
	// never let it vouch for a context it did not see.
	srcCtx, srcGen := srcComp.entity.ContextAndGen()
	dstCtx, dstGen := dstComp.entity.ContextAndGen()
	flowGen := ifc.FlowCacheGeneration()
	if err := ifc.EnforceFlow(srcCtx, dstCtx); err != nil {
		note := "connect denied by IFC: " + err.Error()
		if via, ok := b.gates.Route(srcCtx, dstCtx); ok && via != "" {
			note += "; installed gate " + via + " could bridge this flow"
		}
		b.auditDenied(srcComp.entity.ID(), dstComp.entity.ID(), srcCtx,
			dstCtx, by, "", note)
		return nil, err
	}

	ch := &channel{
		key:     channelKey{src: src, dst: rest},
		srcComp: srcComp, dstComp: dstComp, dstEP: dstEP,
	}
	ch.verified.Store(&chanStamp{srcGen: srcGen, dstGen: dstGen, flowGen: flowGen})
	return ch, nil
}

// ConnectMany establishes many local channels in one pass, with one
// routing-snapshot swap per touched shard instead of one per channel —
// the bulk path for bootstrapping large topologies (a million registered
// channels clone each shard's index once, not a million times). Every
// pair is individually policed exactly as Connect polices it (AC, schema,
// IFC, quarantine); the first failure aborts the whole batch before any
// routing state changes. One summary audit record is appended per batch.
//
// The batch holds every touched shard's write lock while it retires
// replaced channels and installs the new ones, so it serialises against
// concurrent Connect/Disconnect on overlapping keys exactly like
// repeated Connect would. Lock-free readers may still briefly observe
// one shard's new snapshot alongside another's old one (snapshots swap
// per shard). Remote destinations are not supported here.
func (b *Bus) ConnectMany(by ifc.PrincipalID, pairs [][2]string) error {
	if len(pairs) == 0 {
		return nil
	}
	snap := b.store.Snapshot()
	chans := make([]*channel, 0, len(pairs))
	authorized := make(map[string]bool, 64)
	for _, p := range pairs {
		src, dst := p[0], p[1]
		srcComp, srcEP, err := b.resolveLocal(src, Source)
		if err != nil {
			return err
		}
		resource := "channel/" + srcEP.Schema.Name + "/" + src + "/" + dst
		if !authorized[resource] {
			if err := b.acl.Authorize(by, "connect", resource, snap); err != nil {
				b.auditDenied(srcComp.entity.ID(), ifc.EntityID(dst), srcComp.Context(),
					ifc.SecurityContext{}, by, "", "connect denied by AC: "+err.Error())
				return err
			}
			authorized[resource] = true
		}
		if srcComp.Quarantined() {
			return fmt.Errorf("%w: %q", ErrQuarantined, srcComp.Name())
		}
		if remote, _ := splitRemoteAddr(dst); remote != "" && remote != b.name {
			return fmt.Errorf("sbus: ConnectMany: remote destination %q not supported", dst)
		}
		_, rest := splitRemoteAddr(dst)
		ch, err := b.buildLocalChannel(by, srcComp, srcEP, src, rest)
		if err != nil {
			return err
		}
		chans = append(chans, ch)
	}

	// Dedup by key (last wins, like repeated Connect).
	byKey := make(map[channelKey]*channel, len(chans))
	ordered := chans[:0]
	for _, ch := range chans {
		if _, dup := byKey[ch.key]; !dup {
			ordered = append(ordered, ch)
		}
		byKey[ch.key] = ch
	}

	// Group the owned-index work by source shard and the byComp work by
	// each touched component's home shard: each touched slice is copied
	// once per batch, then extended in place.
	ownedByShard := make(map[int][]*channel)
	compByShard := make(map[int]map[string][]*channel)
	for _, ch := range ordered {
		ch := byKey[ch.key]
		i, j, _, _ := b.channelShards(ch.key)
		ch.srcShard, ch.dstShard = i, j
		ownedByShard[i] = append(ownedByShard[i], ch)
		for _, name := range ch.compNames() {
			home := b.shardIdx(name)
			m := compByShard[home]
			if m == nil {
				m = make(map[string][]*channel)
				compByShard[home] = m
			}
			m[name] = append(m[name], ch)
		}
	}
	idxs := make(map[int]bool, len(b.shards))
	for i := range ownedByShard {
		idxs[i] = true
	}
	for i := range compByShard {
		idxs[i] = true
	}
	order := make([]int, 0, len(idxs))
	for i := range idxs {
		order = append(order, i)
	}
	sort.Ints(order)

	// Retire predecessors and bulk-install inside ONE critical section
	// spanning every touched shard. A predecessor shares its key — and
	// therefore its shards — with its replacement, so its indexes are all
	// under these locks; doing both halves under them means a concurrent
	// Connect on an overlapping key either completes before the batch (its
	// channel is retired here) or after it (retiring the batch's channel),
	// never interleaving in a way that strands a live bySrc entry.
	b.mutateN(order, func(rs map[int]*routing) bool {
		for _, ch := range ordered {
			ch := byKey[ch.key]
			if old := rs[ch.srcShard].removeOwned(ch.key); old != nil {
				for _, name := range old.compNames() {
					rs[b.shardIdx(name)].removeByComp(name, old)
				}
			}
		}
		for i, adds := range ownedByShard {
			r := rs[i]
			grownSrc := make(map[string][]*channel)
			for _, ch := range adds {
				r.channels[ch.key] = ch
				s, ok := grownSrc[ch.key.src]
				if !ok {
					s = append(make([]*channel, 0, len(r.bySrc[ch.key.src])+4), r.bySrc[ch.key.src]...)
				}
				grownSrc[ch.key.src] = append(s, ch)
			}
			for k, s := range grownSrc {
				r.bySrc[k] = s
			}
		}
		for i, comps := range compByShard {
			r := rs[i]
			for name, chs := range comps {
				s := append(make([]*channel, 0, len(r.byComp[name])+len(chs)), r.byComp[name]...)
				r.byComp[name] = append(s, chs...)
			}
		}
		return true
	})

	b.log.Append(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Agent: by, Note: fmt.Sprintf("bulk channel establishment: %d channels", len(chans)),
	})
	return nil
}

// Disconnect removes a channel on behalf of a principal (AC-checked).
func (b *Bus) Disconnect(by ifc.PrincipalID, src, dst string) error {
	if err := b.acl.Authorize(by, "disconnect", "channel/*/"+src+"/"+dst, b.store.Snapshot()); err != nil {
		return err
	}
	_, rest := splitRemoteAddr(dst)
	key := channelKey{src: src, dst: rest}
	if remote, _ := splitRemoteAddr(dst); remote != "" && remote != b.name {
		key.dst = dst
	}
	if !b.uninstallChannel(key, nil) {
		return fmt.Errorf("%w: %s -> %s", ErrNoChannel, src, dst)
	}
	b.log.Append(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Src: ifc.EntityID(b.name + ":" + src), Dst: ifc.EntityID(dst),
		Agent: by, Note: "channel torn down",
	})
	return nil
}

// Channels lists established channels across all shards as "src -> dst",
// sorted.
func (b *Bus) Channels() []string {
	var out []string
	for _, sh := range b.shards {
		for k := range sh.routing.Load().channels {
			out = append(out, k.src+" -> "+k.dst)
		}
	}
	sort.Strings(out)
	return out
}

// publish delivers a message from a source endpoint down every channel.
// The owning shard's routing snapshot is read without locks, so
// publication never contends with registration, connection or
// re-evaluation — on any shard. Same-shard sinks are delivered inline on
// the caller's goroutine; sinks homed on another shard are handed off to
// that shard's dispatcher through its ring (counted as delivered when
// accepted; per-message policy is still enforced, and denials audited, on
// the dispatching shard). If a ring is full, or the bus is closed and no
// dispatcher will drain it, the delivery runs inline instead, so
// publishers never block on a slow shard and never lose messages to a
// stopped one.
func (b *Bus) publish(c *Component, endpoint string, m *msg.Message) (int, error) {
	start := b.pubHist.Start()
	ep, ok := c.Endpoint(endpoint)
	if !ok {
		return 0, fmt.Errorf("%w: %q on %q", ErrNoEndpoint, endpoint, c.Name())
	}
	if ep.Dir != Source {
		return 0, fmt.Errorf("%w: %q is %s", ErrDirection, endpoint, ep.Dir)
	}
	if c.Quarantined() {
		return 0, fmt.Errorf("%w: %q", ErrQuarantined, c.Name())
	}
	if err := ep.Schema.Validate(m); err != nil {
		return 0, err
	}

	// Flow tracing: a message that arrives untraced makes the head
	// sampling decision here (hop 0); one that already carries a trace —
	// relayed off a link ingress or re-published by a local component —
	// keeps it, so a federated path stays one trace.
	if m.Trace.IsZero() {
		if tc, ok := telemetry.StartTrace(); ok {
			m.Trace = tc
			telemetry.RecordSpan(tc, b.name, "publish", c.Name()+"."+endpoint, "", "")
		}
	} else {
		telemetry.RecordSpan(m.Trace, b.name, "relay", c.Name()+"."+endpoint, "", "")
	}

	// Stage attribution: arm the per-message stage clock here (hop 0) when
	// sampled; a message that already carries one — relayed off a link
	// ingress or re-published locally — keeps it, so its edges telescope
	// across the whole path. One atomic load when sampling is off. Only
	// assign on a hit: an unconditional nil store would race with clone
	// reads from a prior publish's still-in-flight cross-shard handoffs.
	if m.Stage == nil {
		if sc := telemetry.ArmStageClock(); sc != nil {
			m.Stage = sc
		}
	}

	outs := b.shards[c.shard].routing.Load().bySrc[c.Name()+"."+endpoint]

	delivered := 0
	for _, ch := range outs {
		if ch.remoteBus != "" {
			if err := b.sendRemote(c, ep, ch, m); err == nil {
				delivered++
			}
			continue
		}
		if ch.dstShard == c.shard {
			if b.deliverLocal(c, ep, ch, m) {
				delivered++
			}
			continue
		}
		if b.shards[ch.dstShard].tryHandoff(b, handoff{srcComp: c, srcEP: ep, ch: ch, m: m}) {
			delivered++
		} else if b.deliverLocal(c, ep, ch, m) {
			delivered++
		}
	}
	b.pubHist.ObserveSince(start)
	return delivered, nil
}

// deliverLocal enforces per-message policy and invokes the sink handler.
// The delivery pipeline (Section 8.2.2): OS-level IFC re-check (contexts
// may have changed since establishment), message-type clearance, attribute
// quenching, then handler invocation. Every outcome is audited (the audit
// records are staged per shard off the delivery path; see
// audit.Log.AppendAsyncLane).
// Runs on the publisher's goroutine for same-shard sinks and on the
// destination shard's dispatcher for cross-shard handoffs.
func (b *Bus) deliverLocal(srcComp *Component, srcEP EndpointSpec, ch *channel, m *msg.Message) bool {
	dstComp, dstEP := ch.dstComp, ch.dstEP
	srcCtx, dstCtx := srcComp.Context(), dstComp.Context()

	if dstComp.Quarantined() {
		b.auditDeniedTrace(m.Trace, srcComp.entity.ID(), dstComp.entity.ID(), srcCtx, dstCtx,
			srcComp.principal, m.DataID, "delivery denied: destination quarantined")
		return false
	}
	// OS-level IFC re-check on every message (cached per context pair).
	if err := ifc.EnforceFlow(srcCtx, dstCtx); err != nil {
		b.auditDeniedTrace(m.Trace, srcComp.entity.ID(), dstComp.entity.ID(), srcCtx, dstCtx,
			srcComp.principal, m.DataID, "delivery denied by IFC: "+err.Error())
		return false
	}
	// Message-layer type tags (Fig. 10): whole message needs clearance.
	clearance := dstComp.Clearance()
	if !srcEP.Schema.Secrecy.Subset(clearance) {
		b.auditDeniedTrace(m.Trace, srcComp.entity.ID(), dstComp.entity.ID(), srcCtx, dstCtx,
			srcComp.principal, m.DataID,
			fmt.Sprintf("delivery denied: type tags %s exceed clearance %s", srcEP.Schema.Secrecy, clearance))
		return false
	}
	// Attribute-level source quenching.
	out, quenched := srcEP.Schema.Quench(m, clearance)

	if !m.Trace.IsZero() { // guard: skip the src/dst formatting for untraced flows
		telemetry.RecordSpan(m.Trace, b.name, "deliver",
			srcComp.Name()+"."+srcEP.Name, dstComp.Name()+"."+dstEP.Name, "")
	}
	// Stage the record in the destination shard's audit lane: the lane is
	// uncontended when this runs on that shard's dispatcher, so parallel
	// deliveries never serialise on audit ingest. A stage-attributed
	// message threads its clock through so the decide→audit edge is marked
	// at commit.
	b.log.AppendAsyncLaneStaged(ch.dstShard, audit.Record{
		Kind: audit.FlowAllowed, Layer: audit.LayerMessaging, Domain: b.name,
		Src: srcComp.entity.ID(), Dst: dstComp.entity.ID(),
		SrcCtx: srcCtx, DstCtx: dstCtx,
		DataID: m.DataID, Agent: srcComp.principal,
		Note: deliveryNote(quenched), TraceID: m.Trace.ID.String(),
	}, m.Stage)
	// Count before invoking the handler: the delivery is decided once
	// policy passes, and anything the handler unblocks (tests, examples
	// waiting on a message) must already see it in ShardStats.
	b.shards[ch.dstShard].delivered.Add(1)
	dstComp.delivered.Add(1)
	out.Stage.MarkDeliver()
	if dstComp.handler != nil {
		dstComp.handler(out, Delivery{
			From:     b.name + ":" + srcComp.Name() + "." + srcEP.Name,
			Endpoint: dstEP.Name,
			Quenched: quenched,
		})
	}
	return true
}

func deliveryNote(quenched []string) string {
	if len(quenched) == 0 {
		return "delivered"
	}
	return "delivered with quenched attributes: " + strings.Join(quenched, ",")
}

// reevaluate re-checks the channels touching the named component and tears
// down those the current contexts no longer permit. The byComp index on
// the component's home shard keeps the cost proportional to the
// component's own channels — channels between unaffected components, on
// this shard or any other, are never visited — and the per-channel
// generation stamp skips even a touched channel when no generation it
// depends on has moved (e.g. a SetContext to the identical context). The
// scan itself is lock-free (it reads the immutable snapshot and atomic
// stamps), so concurrent re-evaluations on different components — even on
// the same shard — only contend when a teardown actually mutates routing.
func (b *Bus) reevaluate(component string) {
	sh := b.shardFor(component)
	sh.reevals.Add(1)
	cur := sh.routing.Load()
	var torn []*channel
	for _, ch := range cur.byComp[component] {
		if ch.remoteBus != "" {
			continue // the remote bus re-checks on ingress
		}
		// Generations before contexts: a concurrent change then at worst
		// leaves a stale stamp, never a stamp vouching for unseen contexts.
		srcCtx, srcGen := ch.srcComp.entity.ContextAndGen()
		dstCtx, dstGen := ch.dstComp.entity.ContextAndGen()
		stamp := chanStamp{srcGen: srcGen, dstGen: dstGen, flowGen: ifc.FlowCacheGeneration()}
		if v := ch.verified.Load(); v != nil && *v == stamp {
			continue // legality already confirmed for these exact generations
		}
		if srcCtx.CanFlowTo(dstCtx) {
			ch.verified.Store(&stamp)
		} else {
			torn = append(torn, ch)
		}
	}
	for _, ch := range torn {
		// Identity-checked removal: never tear down a replacement channel
		// connected after this scan condemned the old one.
		if !b.uninstallChannel(ch.key, ch) {
			continue
		}
		b.log.Append(audit.Record{
			Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
			Src: ifc.EntityID(b.name + ":" + ch.key.src), Dst: ifc.EntityID(ch.key.dst),
			Note: "channel torn down: context change made flow illegal",
		})
	}
}

// auditDenied appends a denial record (batched off the enforcement path)
// for a flow that carried no trace context.
func (b *Bus) auditDenied(src, dst ifc.EntityID, srcCtx, dstCtx ifc.SecurityContext,
	agent ifc.PrincipalID, dataID, note string) {
	b.auditDeniedTrace(telemetry.TraceContext{}, src, dst, srcCtx, dstCtx, agent, dataID, note)
}

// auditDeniedTrace appends a denial record, recording a "deny" span first.
// Denials are always traced (a trace ID is minted when the flow carried
// none — always-sample-on-error), and the span's ID is stamped into the
// audit record so the compliance evidence and the performance trace
// correlate.
func (b *Bus) auditDeniedTrace(tc telemetry.TraceContext, src, dst ifc.EntityID,
	srcCtx, dstCtx ifc.SecurityContext, agent ifc.PrincipalID, dataID, note string) {
	id := telemetry.RecordSpan(tc, b.name, "deny", string(src), string(dst), note)
	b.log.AppendAsync(audit.Record{
		Kind: audit.FlowDenied, Layer: audit.LayerMessaging, Domain: b.name,
		Src: src, Dst: dst, SrcCtx: srcCtx, DstCtx: dstCtx,
		DataID: dataID, Agent: agent, Note: note, TraceID: id.String(),
	})
}
