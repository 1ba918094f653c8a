n += xs.length;
