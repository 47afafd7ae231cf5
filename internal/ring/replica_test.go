package ring

import (
	"bytes"
	"net/http"
	"sync"
	"testing"
)

// TestReplicaRendersImage: whatever the first line holds, a replica
// renders its image back byte for byte, and it shares the candidate
// rows only when the header has a balanced array of them.
func TestReplicaRendersImage(t *testing.T) {
	for _, tc := range []struct {
		image  string
		shared bool
	}{
		{`{"h":{"spec":{"candidates":[[0],[1.5]],"seeds":[0]}}}` + "\n" + `{"o":{"x":[0]}}` + "\n", true},
		{`{"h":{"spec":{"name":"a\"candidates\":[[","candidates":[[2]]}}}` + "\n", true},
		{`{"h":{"spec":{"source":"dataset"}}}` + "\n" + `{"o":{"candidates":[[1]]}}` + "\n", false},
		{`{"h":{"spec":{"candidates":[[0],[1` + "\n" + `]]}}}` + "\n", false},
		{`{"h":{"spec":{"candidates":[]}}}`, true},
	} {
		rep := newReplica([]byte(tc.image), 1)
		if got := rep.image(); !bytes.Equal(got, []byte(tc.image)) {
			t.Fatalf("image %q rendered as %q", tc.image, got)
		}
		if (rep.rows != nil) != tc.shared {
			t.Fatalf("image %q: shared rows = %v, want %v", tc.image, rep.rows != nil, tc.shared)
		}
		rep.drop()
	}
}

// TestRowRunsConcurrent interns and drops one run from several
// goroutines at once (run it under -race): they share one copy, and the
// run leaves the table with its last holder.
func TestRowRunsConcurrent(t *testing.T) {
	image := []byte(`{"h":{"spec":{"candidates":[[4.5],[6]]}}}` + "\n")
	held := newReplica(image, 1)
	reps := make([]*replica, 8)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i] = newReplica(image, 1)
		}(i)
	}
	wg.Wait()
	for i, rep := range reps {
		if rep.rows != held.rows {
			t.Fatalf("replica %d holds its own copy of the rows", i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep.drop()
		}()
	}
	wg.Wait()
	held.drop()
	again := newReplica(image, 1)
	defer again.drop()
	if again.rows == held.rows {
		t.Fatal("the rows stayed in the table after their last holder dropped them")
	}
}

// TestKillDropsReplicaRows: a killed follower gives back its replicas'
// candidate rows, and once the cluster is closed no node holds any, so
// the process-wide table and its gauge are back to empty.
func TestKillDropsReplicaRows(t *testing.T) {
	cl, err := StartCluster(ClusterConfig{Replicas: 3, Replication: 3, Router: testRouterCfg()})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	id := createCampaign(t, client, cl.URL(), clientSpec(7))
	driveHTTP(t, client, cl.URL(), id, 2)
	m := cl.Router().Membership()
	walk := m.ring(0).OwnerN(id, 3)
	waitReplicasConverged(t, cl, client, id, walk[0], walk[1:])
	if rowRuns.Len() == 0 {
		t.Fatal("the followers hold no shared candidate rows")
	}
	victim := cl.Node(walk[1])
	if err := cl.Kill(walk[1]); err != nil {
		t.Fatal(err)
	}
	victim.mu.Lock()
	held := len(victim.replicas)
	victim.mu.Unlock()
	if held != 0 {
		t.Fatalf("killed follower still holds %d replica(s)", held)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if n, g := rowRuns.Len(), ringRowRuns.Value(); n != 0 || g != 0 {
		t.Fatalf("after close the table holds %d row run(s), gauge reads %v", n, g)
	}
	checkLeaked(t)
}
