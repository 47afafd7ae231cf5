package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/faults"
	"repro/internal/ring"
	"repro/internal/serve"
)

// env is one running service under test and the client API aimed at it.
type env struct {
	api     *api
	mgr     *serve.Manager // single node only
	initial []string       // campaigns created during set-up
	resumeS float64        // ResumeAll until every restored campaign is done
	closers []func()
}

// close tears the service down in reverse order of construction.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// listen serves h on an ephemeral loopback port.
func (e *env) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	e.closers = append(e.closers, func() {
		srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// traced wraps a journal store with the tracing decorator in a traced run.
func (b *bench) traced(s serve.Store) serve.Store {
	if b.rec != nil {
		return &tracedStore{Store: s, rec: b.rec}
	}
	return s
}

func (b *bench) handler(layer string, h http.Handler) http.Handler {
	if b.rec != nil {
		return &tracedHandler{layer: layer, next: h, rec: b.rec}
	}
	return h
}

func (b *bench) transport(layer string, t http.RoundTripper) http.RoundTripper {
	if b.rec != nil {
		return &tracedTransport{layer: layer, base: t, rec: b.rec}
	}
	return t
}

// connect points the benchmark's client at url.
func (b *bench) connect(e *env, url string) {
	tr := newClientTransport()
	e.api = &api{base: url, hc: &http.Client{Transport: tr}, rec: b.rec, sink: b.sink}
	e.closers = append(e.closers, tr.CloseIdleConnections)
}

func shutdown(mgr *serve.Manager) func() {
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}
}

// startNode boots a single campaign service journaling to a DirStore in
// dir.
func (b *bench) startNode(dir string) (*env, error) {
	e := &env{}
	e.mgr = serve.NewManager(serve.Config{Store: b.traced(serve.NewDirStore(dir, faults.TornWriteConfig{}))})
	e.closers = append(e.closers, shutdown(e.mgr))
	url, err := e.listen(b.handler("serve.http", serve.NewServerWith(e.mgr, serve.ServerConfig{})))
	if err != nil {
		e.close()
		return nil, err
	}
	b.connect(e, url)
	return e, nil
}

// startCluster boots three nodes, each journaling to its own DirStore
// under dir and shipping every record to the two other nodes, behind one
// router.
func (b *bench) startCluster(dir string) (*env, error) {
	const nodes = 3
	e := &env{}
	shipTr := &http.Transport{MaxIdleConnsPerHost: 8}
	routeTr := &http.Transport{MaxIdleConnsPerHost: 8}
	e.closers = append(e.closers, shipTr.CloseIdleConnections, routeTr.CloseIdleConnections)
	ship := &http.Client{Transport: b.transport("ring.ship", shipTr)}

	var members []ring.Member
	var all []*ring.Node
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("n%d", i+1)
		n := ring.NewNode(ring.NodeConfig{
			ID:        id,
			Serve:     serve.Config{Store: b.traced(serve.NewDirStore(filepath.Join(dir, id), faults.TornWriteConfig{}))},
			Followers: nodes - 1,
			Client:    ship,
		})
		// Closers run in reverse: the node stops shipping, then drains.
		e.closers = append(e.closers, shutdown(n.Manager()), n.MarkDead)
		url, err := e.listen(b.handler("serve.http", n))
		if err != nil {
			e.close()
			return nil, err
		}
		members = append(members, ring.Member{ID: id, URL: url})
		all = append(all, n)
	}
	router, err := ring.NewRouter(members, ring.RouterConfig{Transport: b.transport("ring.forward", routeTr)})
	if err != nil {
		e.close()
		return nil, err
	}
	e.closers = append(e.closers, router.Close)
	if err := router.PushMembership(); err != nil {
		e.close()
		return nil, err
	}
	for _, n := range all {
		if _, err := n.Manager().ResumeAll(); err != nil {
			e.close()
			return nil, err
		}
	}
	url, err := e.listen(b.handler("ring.router", router))
	if err != nil {
		e.close()
		return nil, err
	}
	b.connect(e, url)
	return e, nil
}
