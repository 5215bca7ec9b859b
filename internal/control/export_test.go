package control

// RandomAcyclicRelation exports randomAcyclicRelation to the external
// test package.
var RandomAcyclicRelation = randomAcyclicRelation
