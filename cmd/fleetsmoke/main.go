// Command fleetsmoke is the end-to-end fleet chaos drill: boot a 3-node rqpd
// fleet over a shared data directory, place a durable session through a
// non-owner (exercising the transparent proxy), crash the owner mid-run
// (checkpoint-crash injection followed by SIGKILL — the honest "kill -9"),
// and assert the fabric's failover contract:
//
//   - the survivors mark the dead owner down within the heartbeat budget and
//     re-route its sessions;
//   - the next hash owner adopts the orphaned session and resumes the
//     interrupted durable run to completion;
//   - the resumed run replays an event suffix identical to an uninterrupted
//     golden run, under the SAME trace ID as the first incarnation;
//   - a zombie (the fenced former owner) writing a stale-epoch checkpoint is
//     rejected terminally by epoch fencing;
//   - a partitioned peer (heartbeat-drop fault injection) is marked down and
//     routed around, then marked back up when the partition heals;
//   - every response along the way carries a correlatable trace identity
//     (Traceparent + X-Request-ID), fleet metrics account for the drill
//     (failovers, proxied requests, hedges, live peers), and no goroutines
//     leak on the survivors.
//
// Exits 0 on success; any violated expectation is fatal. Wired into CI via
// `make fleet-smoke`.
package main

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/runstate"
	"repro/internal/smoke"
	"repro/internal/telemetry"
)

const (
	hbInterval = 150 * time.Millisecond
	// downBudget is the generous ceiling for mark-down detection: the
	// configured hysteresis is 2 consecutive failed probes at a 150ms
	// cadence (~300ms), so 5s of slack absorbs scheduler noise without
	// masking a broken detector.
	downBudget = 5 * time.Second
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetsmoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	log.Print("PASS")
}

func run() error {
	tmp, err := os.MkdirTemp("", "fleetsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "rqpd")
	if err := smoke.BuildDaemon(bin); err != nil {
		return err
	}
	data := filepath.Join(tmp, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return err
	}

	// --- Boot a 3-node fleet on a shared data directory. -------------------
	addrs := make([]string, 3)
	for i := range addrs {
		if addrs[i], err = smoke.FreeAddr(); err != nil {
			return err
		}
	}
	peers := strings.Join(addrs, ",")
	daemons := make(map[string]*smoke.Daemon, len(addrs))
	defer func() {
		for _, d := range daemons {
			d.Stop()
		}
	}()
	for _, a := range addrs {
		d, err := smoke.Start(bin,
			"-addr", a, "-peers", peers, "-data", data,
			"-heartbeat-interval", hbInterval.String(),
			"-heartbeat-down", "2", "-heartbeat-up", "2",
			// An aggressive hedge delay so the drill's proxied reads
			// actually exercise the hedging path.
			"-hedge-delay", "1ms",
			"-session-ttl", "0", "-trace-sample", "0",
		)
		if err != nil {
			return err
		}
		daemons[a] = d
	}
	for _, a := range addrs {
		if err := smoke.Await("http://"+a+"/v1/fleet/health", 10*time.Second); err != nil {
			return err
		}
	}
	for _, a := range addrs {
		if err := awaitLive(a, len(addrs), 10*time.Second); err != nil {
			return err
		}
	}
	log.Printf("fleet of %d live: %s", len(addrs), peers)

	// Goroutine baselines for the post-drill leak check.
	baseline := make(map[string]int, len(addrs))
	for _, a := range addrs {
		if baseline[a], err = smoke.Goroutines("http://" + a); err != nil {
			return err
		}
	}

	// --- Place a durable session through a non-owner. ----------------------
	// The fleet mints the ID and pins it on the hash owner; creating it via
	// an arbitrary node exercises the create-proxy path.
	id, hdr, err := createSession(addrs[0], `{"query":"2D_EQ","gridRes":16}`)
	if err != nil {
		return err
	}
	if err := checkCorrelated(hdr); err != nil {
		return fmt.Errorf("create session response: %w", err)
	}
	owner, err := routeOwner(addrs[0], id)
	if err != nil {
		return err
	}
	if o2, err := routeOwner(addrs[1], id); err != nil {
		return err
	} else if o2 != owner {
		return fmt.Errorf("ring views disagree: %s says owner %s, %s says %s", addrs[0], owner, addrs[1], o2)
	}
	front := ""
	for _, a := range addrs {
		if a != owner {
			front = a
			break
		}
	}
	log.Printf("session %s owned by %s, fronting via %s", id, owner, front)
	if err := smoke.AwaitReady("http://"+front, id, 60*time.Second); err != nil {
		return err
	}

	// --- Golden run: the uninterrupted reference. --------------------------
	runURL := "http://" + front + "/v1/sessions/" + id + "/run"
	truth := `[0.42,0.17]`
	status, hdr, body, err := doReq("POST", runURL,
		`{"strategy":"spillbound","truth":`+truth+`,"durable":true,"runId":"golden"}`, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("golden run: status %d: %s", status, body)
	}
	if err := checkCorrelated(hdr); err != nil {
		return fmt.Errorf("golden run response: %w", err)
	}
	var golden runDoc
	if err := json.Unmarshal(body, &golden); err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	log.Printf("golden run: %d events, totalCost %.4f", len(golden.Events), golden.TotalCost)

	// --- Hedged read. -------------------------------------------------------
	// An exhaustive sweep is an idempotent read that takes far longer than
	// the 1ms hedge delay, so proxying it through the front fires a hedge
	// whatever the loopback latency of the drill's short reads.
	status, _, body, err = doReq("GET", "http://"+front+"/v1/sessions/"+id+"/sweep?strategy=spillbound&max=0", "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("hedged sweep: status %d: %s", status, body)
	}

	// --- Victim run: crash the owner mid-run. ------------------------------
	// The scenario's checkpoint-crash knob interrupts the durable run at its
	// first checkpoint (leaving a resumable snapshot), and the SIGKILL that
	// follows guarantees the owner can never resume it itself — failover or
	// nothing.
	seed := crashSeed()
	victimTrace, err := mintTraceParent()
	if err != nil {
		return err
	}
	status, hdr, body, err = doReq("POST", runURL,
		fmt.Sprintf(`{"strategy":"spillbound","truth":%s,"durable":true,"runId":"victim","scenario":"adversarial-4","scenarioSeed":%d}`, truth, seed),
		map[string]string{"Traceparent": victimTrace})
	if err != nil {
		return err
	}
	if status != http.StatusBadRequest || !strings.Contains(string(body), "crash") {
		return fmt.Errorf("victim run: want 400 with injected crash, got %d: %s", status, body)
	}
	victimID := traceIDOf(victimTrace)
	if got := hdr.Get("X-Request-ID"); got != victimID {
		return fmt.Errorf("victim run: X-Request-ID %q does not echo the request traceparent %q", got, victimID)
	}
	if err := awaitRunStatus(front, id, "victim", "interrupted", 5*time.Second); err != nil {
		return err
	}
	log.Printf("victim run interrupted at a checkpoint (trace %s); SIGKILLing owner %s", victimID, owner)
	daemons[owner].Kill()

	// --- Failover: detection, re-routing, adoption, resume. ----------------
	survivors := make([]string, 0, 2)
	for _, a := range addrs {
		if a != owner {
			survivors = append(survivors, a)
		}
	}
	start := time.Now()
	if err := awaitLive(survivors[0], len(survivors), downBudget); err != nil {
		return fmt.Errorf("owner death not detected: %w", err)
	}
	log.Printf("owner marked down after %v", time.Since(start).Round(time.Millisecond))

	var newOwner string
	err = smoke.Poll("session re-routed off the dead owner", downBudget, 50*time.Millisecond, func() (bool, error) {
		o, err := routeOwner(survivors[0], id)
		if err != nil {
			return false, nil
		}
		newOwner = o
		return o != owner, nil
	})
	if err != nil {
		return err
	}
	log.Printf("session re-routed to %s", newOwner)

	// The adopter rehydrates the session and resumes the interrupted run;
	// GET .../runs/victim serves the full resumed result once it completes.
	var resumed runDoc
	err = smoke.Poll("victim run resumed on "+newOwner, 60*time.Second, 100*time.Millisecond, func() (bool, error) {
		st, _, b, err := doReq("GET", "http://"+survivors[0]+"/v1/sessions/"+id+"/runs/victim", "", nil)
		if err != nil || st != http.StatusOK {
			return false, nil
		}
		var doc runDoc
		if json.Unmarshal(b, &doc) != nil {
			return false, nil
		}
		if !doc.Resumed || len(doc.Events) == 0 {
			return false, nil
		}
		resumed = doc
		return true, nil
	})
	if err != nil {
		return err
	}
	log.Printf("victim resumed: %d events, totalCost %.4f, trace %s", len(resumed.Events), resumed.TotalCost, resumed.TraceID)

	// --- The failover contract. --------------------------------------------
	if resumed.TraceID != victimID {
		return fmt.Errorf("resumed run trace %s != first-incarnation trace %s (one trace must span incarnations)", resumed.TraceID, victimID)
	}
	if !hasKind(resumed.Events, "run_resume") {
		return fmt.Errorf("resumed run carries no run_resume event")
	}
	fo, ok := findKind(resumed.Events, "failover")
	if !ok {
		return fmt.Errorf("resumed run carries no failover marker event")
	}
	if fo.Mode != newOwner {
		return fmt.Errorf("failover marker names adopter %q, want %q", fo.Mode, newOwner)
	}
	if err := compareSuffix(golden, resumed); err != nil {
		return err
	}
	log.Print("resumed suffix identical to golden; one trace across incarnations")

	// --- Zombie fencing. ----------------------------------------------------
	// Impersonate the dead owner: open the session's run store directly and
	// write a checkpoint stamped with the pre-failover epoch. Adoption
	// advanced the on-disk epoch, so the write must be rejected.
	st2, err := runstate.NewStore(filepath.Join(data, id))
	if err != nil {
		return err
	}
	epoch, node, err := st2.LoadEpoch()
	if err != nil {
		return err
	}
	if epoch < 1 || node != newOwner {
		return fmt.Errorf("adoption did not advance the fence: epoch %d owned by %q, want >=1 owned by %q", epoch, node, newOwner)
	}
	zerr := st2.SaveRun(&runstate.RunState{RunID: "zombie", Algorithm: "spillbound", Epoch: epoch - 1})
	if !runstate.IsFenced(zerr) {
		return fmt.Errorf("zombie checkpoint (epoch %d < %d) not fenced: err=%v", epoch-1, epoch, zerr)
	}
	log.Printf("zombie checkpoint fenced: %v", zerr)

	// --- Partition drill. ---------------------------------------------------
	// Drop a survivor's inbound heartbeats: it keeps serving, but its peers
	// must mark it down and route around it — then mark it back up when the
	// partition heals.
	partitioned, observer := survivors[0], survivors[1]
	if partitioned == newOwner {
		partitioned, observer = survivors[1], survivors[0]
	}
	if err := postJSON(partitioned, "/v1/fleet/faults", `{"dropHeartbeats":true}`); err != nil {
		return err
	}
	start = time.Now()
	if err := awaitLive(observer, 1, downBudget); err != nil {
		return fmt.Errorf("partitioned peer not marked down: %w", err)
	}
	log.Printf("partitioned peer %s marked down after %v", partitioned, time.Since(start).Round(time.Millisecond))
	if o, err := routeOwner(observer, id); err != nil || o != observer {
		return fmt.Errorf("partitioned fleet routes session to %q (err %v), want sole survivor %s", o, err, observer)
	}
	if err := postJSON(partitioned, "/v1/fleet/faults", `{"dropHeartbeats":false}`); err != nil {
		return err
	}
	if err := awaitLive(observer, 2, downBudget); err != nil {
		return fmt.Errorf("healed peer not marked back up: %w", err)
	}
	log.Printf("partition healed, %s marked back up", partitioned)

	// --- Metrics account for the drill. -------------------------------------
	var failovers, proxyOK, hedges float64
	for _, a := range survivors {
		fams, err := smoke.Scrape("http://" + a)
		if err != nil {
			return err
		}
		if g, ok := gauge(fams, "rqp_peers_live"); !ok || g != 2 {
			return fmt.Errorf("%s rqp_peers_live = %v (present %v), want 2", a, g, ok)
		}
		failovers += counter(fams, "rqp_failovers_total", "")
		proxyOK += counter(fams, "rqp_proxy_requests_total", "ok")
		hedges += counter(fams, "rqp_hedges_total", "")
	}
	if failovers < 1 {
		return fmt.Errorf("rqp_failovers_total = %v across survivors, want >= 1", failovers)
	}
	if proxyOK < 1 {
		return fmt.Errorf("rqp_proxy_requests_total{outcome=ok} = %v across survivors, want >= 1", proxyOK)
	}
	if hedges < 1 {
		return fmt.Errorf("rqp_hedges_total = %v across survivors, want >= 1 (hedge delay is 1ms)", hedges)
	}
	log.Printf("metrics: failovers %v, proxied ok %v, hedges %v", failovers, proxyOK, hedges)

	// --- The fleet membership timeline is a trace. --------------------------
	var peersDoc struct {
		FleetTraceID string `json:"fleetTraceId"`
	}
	if err := getJSON(newOwner, "/v1/fleet/peers", &peersDoc); err != nil {
		return err
	}
	st3, _, tbody, err := doReq("GET", "http://"+newOwner+"/v1/runs/"+peersDoc.FleetTraceID+"/trace", "", nil)
	if err != nil {
		return err
	}
	if st3 != http.StatusOK || !strings.Contains(string(tbody), "peer_state") {
		return fmt.Errorf("fleet trace %s: status %d, want 200 with peer_state spans: %s", peersDoc.FleetTraceID, st3, tbody)
	}
	if err := smoke.Get("http://" + newOwner + "/v1/runs/" + peersDoc.FleetTraceID + "/trace?format=svg"); err != nil {
		return fmt.Errorf("fleet flamegraph: %w", err)
	}

	// --- Goroutine hygiene on the survivors. --------------------------------
	for _, a := range survivors {
		if _, err := smoke.AwaitGoroutineSettle("http://"+a, baseline[a], 10, 10*time.Second); err != nil {
			return fmt.Errorf("goroutine leak on %s: %w", a, err)
		}
	}
	return nil
}

// runDoc is the drill's view of a run response (a subset of the server's
// runResponse).
type runDoc struct {
	TotalCost float64           `json:"totalCost"`
	SubOpt    float64           `json:"subOpt"`
	Events    []telemetry.Event `json:"events"`
	RunID     string            `json:"runId"`
	Resumed   bool              `json:"resumed"`
	TraceID   string            `json:"traceId"`
}

// crashSeed finds a scenario seed whose adversarial-4 crashes at the FIRST
// checkpoint — resolved in-process through the same registry the daemon
// uses, so the drill never guesses at fault knobs.
func crashSeed() int64 {
	for seed := int64(1); seed < 256; seed++ {
		if sc, ok := repro.ScenarioByName(seed, "adversarial-4"); ok && sc.Faults.CrashAtCheckpoint == 1 {
			return seed
		}
	}
	log.Fatal("no seed in [1,256) gives adversarial-4 a first-checkpoint crash")
	return 0
}

// compareSuffix asserts the resumed incarnation replayed exactly the golden
// run's tail: its execution events must match the last len(resumed) golden
// execution events field-for-field, and the cross-incarnation total cost
// must equal the uninterrupted one.
func compareSuffix(golden, resumed runDoc) error {
	g := execEvents(golden.Events)
	r := execEvents(resumed.Events)
	if len(r) == 0 || len(r) > len(g) {
		return fmt.Errorf("resumed run has %d execution events, golden %d", len(r), len(g))
	}
	off := len(g) - len(r)
	for i, re := range r {
		ge := g[off+i]
		if re.Kind != ge.Kind || re.Contour != ge.Contour || re.Dim != ge.Dim ||
			re.PlanID != ge.PlanID || re.Completed != ge.Completed ||
			relDiff(re.Spent, ge.Spent) > 1e-9 {
			return fmt.Errorf("resumed suffix diverges at step %d: got %+v, golden %+v", i, re, ge)
		}
	}
	if relDiff(resumed.TotalCost, golden.TotalCost) > 1e-9 {
		return fmt.Errorf("resumed totalCost %v != golden %v", resumed.TotalCost, golden.TotalCost)
	}
	return nil
}

// execEvents filters a run stream down to its deterministic execution steps
// (contour entries, plan/spill executions, prunes) — the replay-identity
// alphabet; resume markers and budget bookkeeping are incarnation-specific.
func execEvents(evs []telemetry.Event) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range evs {
		switch ev.Kind {
		case telemetry.ContourEnter, telemetry.PlanExec, telemetry.SpillExec, telemetry.HalfSpacePrune:
			out = append(out, ev)
		}
	}
	return out
}

func hasKind(evs []telemetry.Event, kind string) bool {
	_, ok := findKind(evs, kind)
	return ok
}

func findKind(evs []telemetry.Event, kind string) (telemetry.Event, bool) {
	for _, ev := range evs {
		if string(ev.Kind) == kind {
			return ev, true
		}
	}
	return telemetry.Event{}, false
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// doReq issues one request with optional extra headers, returning status,
// response headers and body.
func doReq(method, url, body string, hdr map[string]string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// checkCorrelated enforces the correlation contract on a response: every
// fleet-fronted response must carry a Traceparent and X-Request-ID.
func checkCorrelated(h http.Header) error {
	if h.Get("Traceparent") == "" || h.Get("X-Request-ID") == "" {
		return fmt.Errorf("response lacks trace identity (Traceparent=%q, X-Request-ID=%q)",
			h.Get("Traceparent"), h.Get("X-Request-ID"))
	}
	return nil
}

// createSession creates a session via addr and returns the fleet-minted ID
// and the response headers.
func createSession(addr, body string) (string, http.Header, error) {
	status, hdr, b, err := doReq("POST", "http://"+addr+"/v1/sessions", body, nil)
	if err != nil {
		return "", nil, err
	}
	if status != http.StatusAccepted && status != http.StatusCreated {
		return "", nil, fmt.Errorf("create session: status %d: %s", status, b)
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || doc.ID == "" {
		return "", nil, fmt.Errorf("create session: bad response %s", b)
	}
	return doc.ID, hdr, nil
}

// routeOwner asks addr which node owns key under its current ring view.
func routeOwner(addr, key string) (string, error) {
	var doc struct {
		Owner string `json:"owner"`
	}
	if err := getJSON(addr, "/v1/fleet/route?key="+key, &doc); err != nil {
		return "", err
	}
	if doc.Owner == "" {
		return "", fmt.Errorf("%s reports no owner for %s", addr, key)
	}
	return doc.Owner, nil
}

// awaitLive polls addr's membership snapshot until it reports want live
// peers.
func awaitLive(addr string, want int, timeout time.Duration) error {
	return smoke.Poll(fmt.Sprintf("%s to see %d live peers", addr, want), timeout, 50*time.Millisecond, func() (bool, error) {
		var doc struct {
			Live int `json:"live"`
		}
		if err := getJSON(addr, "/v1/fleet/peers", &doc); err != nil {
			return false, nil
		}
		return doc.Live == want, nil
	})
}

// awaitRunStatus polls a durable run resource until it reports the wanted
// status.
func awaitRunStatus(addr, session, runID, want string, timeout time.Duration) error {
	url := "http://" + addr + "/v1/sessions/" + session + "/runs/" + runID
	return smoke.Poll("run "+runID+" to be "+want, timeout, 50*time.Millisecond, func() (bool, error) {
		st, _, b, err := doReq("GET", url, "", nil)
		if err != nil || st != http.StatusOK {
			return false, nil
		}
		var doc struct {
			Status string `json:"status"`
		}
		if json.Unmarshal(b, &doc) != nil {
			return false, nil
		}
		return doc.Status == want, nil
	})
}

func getJSON(addr, path string, v any) error {
	st, _, b, err := doReq("GET", "http://"+addr+path, "", nil)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("GET %s%s: status %d: %s", addr, path, st, b)
	}
	return json.Unmarshal(b, v)
}

func postJSON(addr, path, body string) error {
	st, _, b, err := doReq("POST", "http://"+addr+path, body, nil)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("POST %s%s: status %d: %s", addr, path, st, b)
	}
	return nil
}

// mintTraceParent generates a fresh W3C traceparent header value.
func mintTraceParent() (string, error) {
	b := make([]byte, 24)
	if _, err := rand.Read(b); err != nil {
		return "", err
	}
	return "00-" + hex.EncodeToString(b[:16]) + "-" + hex.EncodeToString(b[16:]) + "-01", nil
}

// traceIDOf extracts the trace ID from a traceparent header value.
func traceIDOf(tp string) string {
	parts := strings.Split(tp, "-")
	if len(parts) == 4 {
		return parts[1]
	}
	return ""
}

// gauge reads a single-sample gauge family.
func gauge(fams map[string]*telemetry.ParsedFamily, name string) (float64, bool) {
	fam, ok := fams[name]
	if !ok || len(fam.Samples) == 0 {
		return 0, false
	}
	return fam.Samples[0].Value, true
}

// counter sums a counter family's samples, optionally filtering on an
// outcome label.
func counter(fams map[string]*telemetry.ParsedFamily, name, outcome string) float64 {
	fam, ok := fams[name]
	if !ok {
		return 0
	}
	var sum float64
	for _, s := range fam.Samples {
		if outcome != "" && s.Labels["outcome"] != outcome {
			continue
		}
		sum += s.Value
	}
	return sum
}
