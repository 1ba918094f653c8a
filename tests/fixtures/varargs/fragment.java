int k = xs.length;
k += n;
