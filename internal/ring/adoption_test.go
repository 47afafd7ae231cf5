package ring

import (
	"bytes"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/al"
	"repro/internal/obs"
	"repro/internal/serve"
)

// waitReplicasConverged polls until every follower's replica buffer is
// byte-identical to the owner's exported journal, returning that image.
func waitReplicasConverged(t *testing.T, cl *Cluster, client *http.Client, id, owner string, followers []string) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var exported []byte
		if resp, err := client.Get(cl.NodeURL(owner) + "/internal/export/" + id); err == nil {
			exported = readAllBody(t, resp)
		}
		converged := len(exported) > 0
		for _, f := range followers {
			var replicated []byte
			if resp, err := client.Get(cl.NodeURL(f) + "/internal/replica/" + id); err == nil {
				replicated = readAllBody(t, resp)
			}
			converged = converged && bytes.Equal(exported, replicated)
		}
		if converged {
			return exported
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s: follower replicas never converged to the owner's journal", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFailoverAdoptsFreshestReplica pins the quorum-of-1 loss hole at
// replication ≥ 3: an acknowledged record is only guaranteed to be on
// SOME follower, and the ring's heir — the follower that inherits the
// campaign — may be exactly the straggler that missed it. Failover must
// adopt from the longest replica image the cluster still holds, not
// from the heir's local buffer alone.
func TestFailoverAdoptsFreshestReplica(t *testing.T) {
	cl := startTestCluster(t, ClusterConfig{
		Replicas:    3,
		Replication: 3,
		Router:      testRouterCfg(),
	})
	client := &http.Client{}
	ref := refStatus(t, clientSpec(91))

	id := createCampaign(t, client, cl.URL(), clientSpec(91))
	const k = 2
	driveHTTP(t, client, cl.URL(), id, k)

	m := cl.Router().Membership()
	walk := m.ring(0).OwnerN(id, 3)
	if len(walk) != 3 {
		t.Fatalf("campaign %s: ring walk %v, want owner plus two followers", id, walk)
	}
	owner, heir, other := walk[0], walk[1], walk[2]
	full := waitReplicasConverged(t, cl, client, id, owner, []string{heir, other})

	// Stage the straggler: the heir's replica loses its last record, as
	// if the ship to it failed and the owner died before the lazy resync
	// healed it. The record stays acknowledged — the other follower has
	// it, which is all the quorum-of-1 ack rule ever promised.
	cut := bytes.LastIndexByte(full[:len(full)-1], '\n')
	if cut < 0 {
		t.Fatalf("campaign %s: journal %q has a single line, cannot stage a straggler", id, full)
	}
	stale := full[:cut+1]
	req, err := http.NewRequest(http.MethodPut, cl.NodeURL(heir)+"/internal/replica/"+id, bytes.NewReader(stale))
	if err != nil {
		t.Fatalf("build replica truncation: %v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("truncate heir replica: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("truncate heir replica: HTTP %d", resp.StatusCode)
	}

	if err := cl.KillAndFailover(owner); err != nil {
		t.Fatalf("kill+failover (%s): %v", owner, err)
	}
	if got := cl.Router().Owner(id); got != heir {
		t.Fatalf("after failover the campaign is on %s, want the heir %s", got, heir)
	}

	// Zero acked-observe loss: the heir resumed from the other
	// follower's complete image, not its own stale buffer.
	var st serve.CampaignStatus
	if code, err := httpJSON(client, http.MethodGet, cl.URL()+"/campaigns/"+id, "", nil, &st); err != nil || code != http.StatusOK {
		t.Fatalf("status after failover: HTTP %d, err %v", code, err)
	}
	if st.Observations != k {
		t.Fatalf("adopted campaign resumed with %d observations, want %d — an acknowledged observe was lost to the stale replica", st.Observations, k)
	}

	driveHTTP(t, client, cl.URL(), id, 0)
	expectSameTrace(t, waitTerminalHTTP(t, client, cl.URL(), id), ref)
}

// TestRejoinPinsPendingAdoptToReplicaHolder pins the rejoin/retry
// interaction: a campaign whose failover adoption failed (parked in the
// pending set) must not be re-placed by a rejoin's ring swap onto the
// freshly reconciled — hence empty — rejoining node. The pin keeps the
// retried adoption aimed at the node that holds the replica.
func TestRejoinPinsPendingAdoptToReplicaHolder(t *testing.T) {
	cl := startTestCluster(t, ClusterConfig{Replicas: 3, Router: testRouterCfg()})
	client := &http.Client{}
	ref := refStatus(t, clientSpec(95))

	id := createCampaign(t, client, cl.URL(), clientSpec(95))
	const k = 2
	driveHTTP(t, client, cl.URL(), id, k)
	owner, holder := ownerAndFollower(t, cl, id)

	// Cut the router off from the failover target, then kill the owner:
	// the epoch moves but the adoption cannot land, so the campaign
	// parks in the pending set, shed with 503.
	if err := cl.Partition(holder, true); err != nil {
		t.Fatalf("partition %s: %v", holder, err)
	}
	if err := cl.Kill(owner); err != nil {
		t.Fatalf("kill %s: %v", owner, err)
	}
	if err := cl.Router().Failover(owner); err == nil {
		t.Fatal("failover with the failover target partitioned reported no failed adoption")
	}
	if code, _ := httpJSON(client, http.MethodGet, cl.URL()+"/campaigns/"+id, "", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("campaign awaiting adoption answered HTTP %d, want 503 shed", code)
	}

	// Heal the link and bring the dead node back. The rejoin's ring swap
	// makes the restarted node the campaign's natural placement again —
	// but its state was just wiped by reconcile, so the retried adoption
	// must stay pinned to the replica holder.
	if err := cl.Partition(holder, false); err != nil {
		t.Fatalf("heal partition %s: %v", holder, err)
	}
	if err := cl.Restart(owner); err != nil {
		t.Fatalf("restart %s: %v", owner, err)
	}
	if err := cl.Router().adoptPending(); err != nil {
		t.Fatalf("pending adoption after rejoin never landed: %v", err)
	}
	if got := cl.Router().Owner(id); got != holder {
		t.Fatalf("pending campaign adopted on %s, want the replica holder %s", got, holder)
	}

	var st serve.CampaignStatus
	if code, err := httpJSON(client, http.MethodGet, cl.URL()+"/campaigns/"+id, "", nil, &st); err != nil || code != http.StatusOK {
		t.Fatalf("status after retried adoption: HTTP %d, err %v", code, err)
	}
	if st.Observations != k {
		t.Fatalf("adopted campaign resumed with %d observations, want %d", st.Observations, k)
	}
	driveHTTP(t, client, cl.URL(), id, 0)
	expectSameTrace(t, waitTerminalHTTP(t, client, cl.URL(), id), ref)
}

// exportFailStore injects Export failures under the shipping store —
// the degraded load path that must not desync the ship index.
type exportFailStore struct {
	serve.Store
	fail bool
}

func (s *exportFailStore) Export(id string) ([]byte, error) {
	if s.fail {
		return nil, errors.New("injected export failure")
	}
	return s.Store.Export(id)
}

// TestLoadShipIndexSurvivesExportFailure pins the ship-index origin:
// Load derives the next index from the loaded journal itself (header
// plus complete observations), so a failing Export cannot leave the
// index at 0 — where every ship would sit below the followers' counts
// and be acknowledged as a dedup, silently dropping new records.
func TestLoadShipIndexSurvivesExportFailure(t *testing.T) {
	inner := serve.NewMemStore()
	app, err := inner.Create("c000001", clientSpec(1))
	if err != nil {
		t.Fatalf("create journal: %v", err)
	}
	for i := 0; i < 3; i++ {
		o := serve.Observation{X: []float64{float64(i)}, Y: al.JSONFloat(float64(i)), Cost: 1}
		if err := app.AppendObs(o, 1, uint64(i+1)); err != nil {
			t.Fatalf("append observation %d: %v", i, err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatalf("close appender: %v", err)
	}

	n := NewNode(NodeConfig{ID: "n1"})
	ss := &shippingStore{node: n, inner: &exportFailStore{Store: inner, fail: true}}
	info, loaded, err := ss.Load("c000001")
	if err != nil {
		t.Fatalf("load through shipping store: %v", err)
	}
	defer loaded.Close()
	sa, ok := loaded.(*shippingAppender)
	if !ok {
		t.Fatalf("Load returned %T, want *shippingAppender", loaded)
	}
	if want := 1 + len(info.Observations); sa.idx != want {
		t.Fatalf("ship index after Load with a failing Export is %d, want %d (header + %d observations)",
			sa.idx, want, len(info.Observations))
	}
	if len(info.Observations) != 3 {
		t.Fatalf("loaded journal has %d observations, want 3", len(info.Observations))
	}
}

// A campaign's snapshot lines ship to its followers like every other
// record, and the heir that adopts it after a failover restores the
// snapshot instead of replaying the whole journal, then finishes on the
// uninterrupted trace.
func TestFailoverRestoresShippedSnapshot(t *testing.T) {
	cl := startTestCluster(t, ClusterConfig{
		Replicas:    3,
		Replication: 3,
		Router:      testRouterCfg(),
	})
	client := &http.Client{}
	spec := clientSpec(97)
	spec.Iterations = 38 // 40 observations: a snapshot after the 32nd
	ref := refStatus(t, spec)

	id := createCampaign(t, client, cl.URL(), spec)
	driveHTTP(t, client, cl.URL(), id, 36)
	m := cl.Router().Membership()
	walk := m.ring(0).OwnerN(id, 3)
	owner, heir := walk[0], walk[1]
	image := waitReplicasConverged(t, cl, client, id, owner, walk[1:])
	if !bytes.Contains(image, []byte(`{"s":{"n":32,`)) {
		t.Fatalf("campaign %s: replicated journal holds no snapshot after observation 32", id)
	}

	restored := obs.C("serve.resume.snapshot").Value()
	if err := cl.KillAndFailover(owner); err != nil {
		t.Fatalf("kill+failover (%s): %v", owner, err)
	}
	if got := cl.Router().Owner(id); got != heir {
		t.Fatalf("after failover the campaign is on %s, want the heir %s", got, heir)
	}
	driveHTTP(t, client, cl.URL(), id, 0)
	expectSameTrace(t, waitTerminalHTTP(t, client, cl.URL(), id), ref)
	if obs.C("serve.resume.snapshot").Value() == restored {
		t.Fatal("the adopting node replayed the journal instead of restoring its snapshot")
	}
}

// TestReplicaImagesShareRows: the followers of two campaigns on one grid
// hold the header's candidate rows once for the whole process, and still
// render every replica image byte for byte: GET /internal/replica/{id}
// equals the owner's Export, and so does the journal a follower adopts
// from its own replica buffer.
func TestReplicaImagesShareRows(t *testing.T) {
	cl := startTestCluster(t, ClusterConfig{
		Replicas:    3,
		Replication: 3,
		Router:      testRouterCfg(),
	})
	client := &http.Client{}
	m := cl.Router().Membership()
	images := map[string][]byte{}
	var ids []string
	for _, seed := range []int64{101, 102} {
		id := createCampaign(t, client, cl.URL(), clientSpec(seed))
		driveHTTP(t, client, cl.URL(), id, 3)
		walk := m.ring(0).OwnerN(id, 3)
		images[id] = waitReplicasConverged(t, cl, client, id, walk[0], walk[1:])
		ids = append(ids, id)
	}

	var shared *rowRun
	for _, id := range ids {
		for _, f := range m.ring(0).OwnerN(id, 3)[1:] {
			n := cl.Node(f)
			n.mu.Lock()
			rep := n.replicas[id]
			n.mu.Unlock()
			if rep == nil || rep.rows == nil {
				t.Fatalf("campaign %s: follower %s holds no shared candidate rows", id, f)
			}
			if shared == nil {
				shared = rep.rows
			}
			if rep.rows != shared {
				t.Fatalf("campaign %s: follower %s holds its own copy of the candidate rows", id, f)
			}
		}
	}

	// Adopt from the local buffer, as a follower does when the router
	// reaches no replica: kill the owner and post an empty body.
	id := ids[0]
	walk := m.ring(0).OwnerN(id, 3)
	if err := cl.Kill(walk[0]); err != nil {
		t.Fatalf("kill %s: %v", walk[0], err)
	}
	if code, err := httpJSON(client, http.MethodPost, cl.NodeURL(walk[1])+"/internal/adopt/"+id, "", nil, nil); err != nil || code != http.StatusOK {
		t.Fatalf("adopt on %s: HTTP %d, err %v", walk[1], code, err)
	}
	resp, err := client.Get(cl.NodeURL(walk[1]) + "/internal/export/" + id)
	if err != nil {
		t.Fatalf("export from %s: %v", walk[1], err)
	}
	if got := readAllBody(t, resp); !bytes.Equal(got, images[id]) {
		t.Fatalf("campaign %s: adopted journal differs from the owner's export:\n%q\nwant\n%q", id, got, images[id])
	}
}
