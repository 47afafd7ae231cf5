package serve

import (
	"net/http"
	"testing"
)

// A served campaign has no held-out test set, so the status JSON shows
// null RMSE and coverage for every record, never a 0% coverage.
func TestServedRecordsReportNullRMSEAndCoverage(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	client := srv.Client()
	var created CampaignStatus
	if code := doJSON(t, client, "POST", srv.URL+"/campaigns", clientSpec(21), &created); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	driveHTTP(t, srv, created.ID)

	var status struct {
		Records []map[string]any `json:"records"`
	}
	if code := doJSON(t, client, "GET", srv.URL+"/campaigns/"+created.ID, nil, &status); code != http.StatusOK {
		t.Fatalf("status: HTTP %d", code)
	}
	if len(status.Records) == 0 {
		t.Fatal("status carries no records")
	}
	for i, r := range status.Records {
		for _, k := range []string{"rmse", "coverage"} {
			if v, ok := r[k]; !ok || v != nil {
				t.Fatalf("record %d: %s = %v (present %v), want null", i, k, v, ok)
			}
		}
	}
}
