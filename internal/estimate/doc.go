// Package estimate supplies the change-frequency knowledge the paper
// assumes the mirror obtains "using estimation and sampling
// techniques" (its references [4] and [6]): estimators that recover an
// element's Poisson change rate λ from a history of polls, each of
// which only reveals whether the element changed at all since the
// previous poll.
//
// Naive is the ratio estimator X/T, which under-estimates because a
// poll collapses any number of changes into one detection. ChoGM is
// the bias-corrected estimator of Cho & Garcia-Molina,
// λ̂ = −log((n−X+0.5)/(n+0.5))/I, consistent for regular polling. MLE
// handles irregular poll intervals by maximizing the exact Bernoulli
// likelihood.
//
// A live mirror runs the online MLE (NewOnline with KindMLE): O(1)
// state per element, updated once per censored poll, and read and
// restored in place through Online.State and Online.Restore. Tracker, which keeps every poll and re-solves MLE,
// and the online naive ratio are the baselines it is measured against.
package estimate
