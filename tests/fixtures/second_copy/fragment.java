total = 0;
total += xs.length;
