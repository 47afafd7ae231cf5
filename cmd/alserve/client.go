package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"time"

	"repro/internal/al"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// clientConfig parameterizes drive mode (alserve -drive URL): the
// process acts as a measurement client against a running server,
// exercising the full resilience path — retrying transport, capped
// backoff with jitter, Retry-After honoring, and idempotency keys on
// every observation.
type clientConfig struct {
	baseURL  string
	specPath string // "" = built-in demo spec
	attempts int
	base     time.Duration
	cap      time.Duration
	seed     int64
}

// demoSpec is the built-in client-sourced campaign drive mode runs when
// no -drive-spec file is given: a 1-D grid measured by demoOracle.
func demoSpec(seed int64) serve.CampaignSpec {
	grid := make([][]float64, 12)
	for i := range grid {
		grid[i] = []float64{3 * float64(i) / 11}
	}
	return serve.CampaignSpec{
		Name:       "drive",
		Source:     "client",
		Candidates: grid,
		Seeds:      []int{0, 11},
		Strategy:   "variance-reduction",
		Iterations: 5,
		Restarts:   1,
		Seed:       seed,
	}
}

// demoOracle is the deterministic measurement answering suggestions in
// drive mode.
func demoOracle(x []float64) (y, cost float64) {
	return math.Sin(2*x[0]) + 0.5*x[0], 1 + x[0]
}

// runClient drives one campaign to a terminal state and reports it.
// Every request goes through the retrying resilience transport, and
// observations carry Idempotency-Key headers, so the loop survives
// connection resets, load shedding, and lost responses without ever
// double-feeding the campaign.
func runClient(cfg clientConfig) error {
	client := resilience.NewClient(nil, resilience.TransportConfig{
		MaxAttempts: cfg.attempts,
		Seed:        cfg.seed,
		Backoff:     resilience.Backoff{Base: cfg.base, Cap: cfg.cap},
	})

	spec := demoSpec(cfg.seed)
	if cfg.specPath != "" {
		data, err := os.ReadFile(cfg.specPath)
		if err != nil {
			return fmt.Errorf("drive: read spec: %w", err)
		}
		spec = serve.CampaignSpec{}
		if err := json.Unmarshal(data, &spec); err != nil {
			return fmt.Errorf("drive: parse spec: %w", err)
		}
	}

	var created serve.CampaignStatus
	if err := postJSON(client, cfg.baseURL+"/campaigns", "create-"+time.Now().UTC().Format(time.RFC3339Nano), spec, &created); err != nil {
		return fmt.Errorf("drive: create campaign: %w", err)
	}
	fmt.Printf("drive: campaign %s created on %s\n", created.ID, cfg.baseURL)

	observed := 0
	for {
		var sug serve.Suggestion
		code, err := getJSON(client, cfg.baseURL+"/campaigns/"+created.ID+"/suggest", &sug)
		switch {
		case err != nil:
			return fmt.Errorf("drive: suggest: %w", err)
		case code == http.StatusConflict:
			// No pending suggestion: the campaign is replaying or
			// done — poll status to find out which.
			var st serve.CampaignStatus
			if _, err := getJSON(client, cfg.baseURL+"/campaigns/"+created.ID, &st); err != nil {
				return fmt.Errorf("drive: status: %w", err)
			}
			switch st.State {
			case serve.StateDone, serve.StateFailed, serve.StateStopped:
				fmt.Printf("drive: campaign %s finished %s after %d observations (converged=%v)\n",
					created.ID, st.State, st.Observations, st.Converged)
				if st.State == serve.StateFailed {
					return fmt.Errorf("drive: campaign failed: %s", st.Error)
				}
				return nil
			}
			time.Sleep(50 * time.Millisecond)
			continue
		case code != http.StatusOK:
			return fmt.Errorf("drive: suggest returned HTTP %d", code)
		}

		y, cost := demoOracle(sug.X)
		req := serve.ObserveRequest{Seq: sug.Seq, Y: al.JSONFloat(y), Cost: al.JSONFloat(cost)}
		// The idempotency key makes the retrying transport safe for this
		// non-idempotent POST: a retry after a lost response dedups
		// server-side instead of colliding with the next suggestion.
		key := fmt.Sprintf("%s-seq%d", created.ID, sug.Seq)
		var ack map[string]any
		if err := postJSON(client, cfg.baseURL+"/campaigns/"+created.ID+"/observe", key, req, &ack); err != nil {
			return fmt.Errorf("drive: observe seq %d: %w", sug.Seq, err)
		}
		observed++
	}
}

// postJSON POSTs v with an idempotency key and decodes the response
// into out. Non-2xx responses that survive the transport's retry budget
// are returned as errors with the server's error envelope.
func postJSON(client *http.Client, url, key string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(resilience.IdempotencyHeader, key)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// getJSON GETs url and decodes 200 responses into out; the status code
// is returned so callers can branch on expected non-200s (409 from
// /suggest between suggestions).
func getJSON(client *http.Client, url string, out any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}
