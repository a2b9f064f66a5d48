"""Simulated MapReduce/MPC cluster with local-ratio and hungry-greedy
graph approximation algorithms, verified against sequential oracles."""
