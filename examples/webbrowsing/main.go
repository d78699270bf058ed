// Web-browsing scenario (paper §1: "users may generally not want to
// disclose their identities when visiting web sites"): a Crowds-style
// jondo network carries page requests for a day's browsing session while
// two jondos collaborate with the web server. The example runs the
// protocol on the goroutine testbed, shows what the collaborators learn
// message by message, and checks the deployment against the
// probable-innocence condition.
//
// Run with: go run ./examples/webbrowsing
package main

import (
	"fmt"
	"log"
	"time"

	"anonmix/internal/crowds"
	"anonmix/internal/simnet"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

const (
	jondos        = 20
	collaborators = 2
	pf            = 0.75
	requests      = 2000
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("webbrowsing: ")

	ok, err := crowds.ProbableInnocence(jondos, collaborators, pf)
	if err != nil {
		log.Fatal(err)
	}
	predProb, err := crowds.PredecessorProb(jondos, collaborators, pf)
	if err != nil {
		log.Fatal(err)
	}
	hEvent, err := crowds.EventEntropy(jondos, collaborators, pf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Crowd: %d jondos, %d collaborating, pf = %.2f\n", jondos, collaborators, pf)
	fmt.Printf("Probable innocence: %v  (first-collaborator predecessor prob %.4f ≤ 0.5 required)\n",
		ok, predProb)
	fmt.Printf("Posterior entropy when a collaborator sees a request: %.4f bits\n\n", hEvent)

	fwd, err := crowds.NewForwarder(jondos, pf, 99) //anonlint:allow seedpurity(fixed demo seed keeps the example output reproducible)
	if err != nil {
		log.Fatal(err)
	}
	comp := make([]trace.NodeID, collaborators)
	for i := range comp {
		comp[i] = trace.NodeID(i)
	}
	nw, err := simnet.New(simnet.Config{N: jondos, Compromised: comp, Forwarder: fwd})
	if err != nil {
		log.Fatal(err)
	}
	nw.Start()
	defer nw.Close()

	// One user (jondo 7) browses; background traffic comes from the rest.
	rng := stats.NewRand(4) //anonlint:allow seedpurity(fixed demo seed keeps the example output reproducible)
	user := trace.NodeID(7)
	senders := make(map[trace.MessageID]trace.NodeID, requests)
	for i := 0; i < requests; i++ {
		sender := user
		if i%4 != 0 { // 3/4 of traffic is from other honest jondos
			sender = trace.NodeID(collaborators + rng.Intn(jondos-collaborators))
		}
		id, err := nw.Inject(sender, fwd.FirstHop(i), simnet.Packet{
			Payload: []byte("GET /index.html"),
		})
		if err != nil {
			log.Fatal(err)
		}
		senders[id] = sender
	}
	if err := nw.WaitSettled(time.Minute); err != nil {
		log.Fatal(err)
	}

	var observed, sawUserFirst, userRequests, userObserved int
	for id, mt := range trace.Collate(nw.Tuples()) {
		if senders[id] == user {
			userRequests++
		}
		if len(mt.Reports) == 0 {
			continue
		}
		observed++
		if senders[id] == user {
			userObserved++
			if mt.Reports[0].Pred == user {
				sawUserFirst++
			}
		}
	}
	fmt.Printf("Session: %d requests (%d from the tracked user)\n", requests, userRequests)
	fmt.Printf("Requests seen by a collaborator: %d (%.1f%%)\n",
		observed, 100*float64(observed)/float64(requests))
	fmt.Printf("Tracked user's requests seen:    %d, of which %d exposed the user as predecessor\n",
		userObserved, sawUserFirst)
	if userObserved > 0 {
		emp := float64(sawUserFirst) / float64(userObserved)
		fmt.Printf("Empirical predecessor rate for the user: %.4f (closed form %.4f)\n", emp, predProb)
	}
	fmt.Println("\nBecause predecessor appearances are expected for any jondo under")
	fmt.Println("the forwarding rule, the collaborators cannot raise their belief")
	fmt.Println("beyond the probable-innocence bound for any single request.")
}
