// Service demonstration: the library behind an HTTP API (cmd/rqpd's
// handler), exercised in-process — the "automated assistant" deployment
// the paper's conclusions sketch. A client creates a session (paying the
// offline ESS construction once), inspects its guarantees, runs instances
// and sweeps robustness metrics.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/server"
)

func main() {
	ts := httptest.NewServer(server.New().Handler())
	defer ts.Close()
	fmt.Println("rqpd-style service running at", ts.URL)

	// Create a session for the paper's example query. Creation is
	// asynchronous (202 Accepted): the parallel ESS build runs in the
	// background while the session resource reports its progress.
	created := post(ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 12})
	id := created["id"].(string)
	fmt.Printf("\nsession %v accepted: status %v\n", id, created["status"])

	// Poll until the build is ready.
	info := created
	for info["status"] != "ready" {
		if info["status"] == "failed" {
			log.Fatalf("build failed: %v", info["buildError"])
		}
		if prog, ok := info["progress"].(map[string]any); ok {
			fmt.Printf("building: %v/%v cells\n", prog["cellsDone"], prog["cellsTotal"])
		}
		time.Sleep(20 * time.Millisecond)
		info = map[string]any{}
		get(ts.URL+"/v1/sessions/"+id, &info)
	}
	fmt.Printf("session %v ready: D=%v, POSP %v plans, %v contours\n",
		id, info["d"], info["pospSize"], info["contours"])
	fmt.Printf("guarantees: PB %.1f | SB %.0f | AB [%.0f, %.0f]\n",
		info["pbGuarantee"], info["sbGuarantee"],
		info["abGuaranteeLow"], info["abGuaranteeHigh"])

	// Process one instance.
	run := post(ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "spillbound",
		"truth":    []float64{0.001, 0.0004},
	})
	fmt.Printf("\nspillbound run: %v steps, sub-optimality %.2f (guarantee %v)\n",
		run["steps"], run["subOpt"], run["guarantee"])

	// Whole-ESS robustness (the sweep is sharded across all cores).
	var sweep map[string]any
	get(ts.URL+"/v1/sessions/"+id+"/sweep?strategy=alignedbound&max=64", &sweep)
	fmt.Printf("alignedbound sweep: MSO %.2f, ASO %.2f over %v locations\n",
		sweep["mso"], sweep["aso"], sweep["locations"])
}

func post(url string, payload any) map[string]any {
	body, err := json.Marshal(payload)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	if e, bad := out["error"]; bad {
		log.Fatalf("server error: %v", e)
	}
	return out
}

func get(url string, into any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		log.Fatal(err)
	}
}
