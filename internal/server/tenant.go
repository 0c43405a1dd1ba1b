package server

// Per-tenant quotas.  A session names its tenant in the hello frame;
// sessions that never say hello stay anonymous and are governed only by
// the server-wide admission controller.  Tenancy is deliberately
// cooperative — the same spirit as the shell's spoofable hooks: the
// handshake declares which policy bucket the session wants to be
// accounted under, and the daemon enforces the bucket's ceilings
// (sessions, in-flight evals, deadline) without trusting anything else
// about the client.

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TenantQuota is one tenant's ceilings.  Zero fields mean unlimited.
type TenantQuota struct {
	// MaxSessions caps concurrently open sessions naming this tenant; a
	// hello over the cap is answered `signal quota` and the session is
	// closed with a bye.
	MaxSessions int

	// MaxInFlight caps this tenant's evals that are queued or running
	// across all its sessions; an eval over the cap is answered with a
	// retryable `signal quota` error frame.
	MaxInFlight int

	// DeadlineCeiling clamps every eval's deadline: a request asking for
	// more (or for no deadline at all) runs under the ceiling instead.
	DeadlineCeiling time.Duration
}

// tenantState is the live accounting for one tenant name.
type tenantState struct {
	name     string
	quota    TenantQuota
	sessions atomic.Int64
	inflight atomic.Int64
}

// tenantSet maps tenant names to their live state, creating entries on
// first contact.  Tenants without a configured quota are unlimited but
// still counted, so stats can attribute load.
type tenantSet struct {
	mu     sync.Mutex
	quotas map[string]TenantQuota
	m      map[string]*tenantState
}

func newTenantSet(quotas map[string]TenantQuota) *tenantSet {
	return &tenantSet{quotas: quotas, m: make(map[string]*tenantState)}
}

func (ts *tenantSet) get(name string) *tenantState {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.m[name]
	if t == nil {
		t = &tenantState{name: name, quota: ts.quotas[name]}
		ts.m[name] = t
	}
	return t
}

// acquireSession counts one session against the tenant, refusing it over
// MaxSessions.
func (ts *tenantSet) acquireSession(name string) (*tenantState, bool) {
	t := ts.get(name)
	for {
		n := t.sessions.Load()
		if t.quota.MaxSessions > 0 && n >= int64(t.quota.MaxSessions) {
			return nil, false
		}
		if t.sessions.CompareAndSwap(n, n+1) {
			return t, true
		}
	}
}

// words renders every tenant's live gauges for the stats surfaces, in
// tenant name order.
func (ts *tenantSet) words() []string {
	ts.mu.Lock()
	states := make([]*tenantState, 0, len(ts.m))
	for _, t := range ts.m {
		states = append(states, t)
	}
	ts.mu.Unlock()
	slices.SortFunc(states, func(a, b *tenantState) int { return strings.Compare(a.name, b.name) })
	var w []string
	for _, t := range states {
		w = append(w,
			fmt.Sprintf("tenant_%s_sessions:%d", t.name, t.sessions.Load()),
			fmt.Sprintf("tenant_%s_inflight:%d", t.name, t.inflight.Load()))
	}
	return w
}
